from __future__ import annotations

import dataclasses
import math
import os
import re
import time
from fractions import Fraction

import pytest

from zerosum import (AbelianGroup, BudgetExceededError, DivisorPair, GSequence,
                     SearchBudget, check_cross_number_conjecture,
                     check_order_divisibility, d_pair_bruteforce, d_pair_value,
                     davenport_constant, davenport_p_group, enumerate_zero_sumfree,
                     gamma_bounds, gamma_exact, gamma_extremal_sequence, k_star,
                     longest_avoiding, max_order_count, order_filter,
                     reduced_group, zero_sumfree_extrema)
from zerosum.search import (_cross_weights, _ExtremaAcc, _rank_lists, _subgroup_mask,
                            _usable_cpus)
from zerosum.sequences import check_witness, cross_number
from conftest import (NON_P_FACTORS, P_GROUP_FACTORS, all_zero_sumfree_multisets,
                      aut_orbit_minima, reference_scan)

C2 = AbelianGroup((2,))
C3 = AbelianGroup((3,))
C6 = AbelianGroup((6,))
C24 = AbelianGroup((2, 4))
C22 = AbelianGroup((2, 2))


def extrema_acc(group):
    """Factory of the d(G)/k(G) accumulator for ``run_scan`` on ``group``."""
    return lambda: _ExtremaAcc(_cross_weights(group))


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
        assert len(seen[0]) == 0

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
        value, witness = zero_sumfree_extrema(C24)[:2]
        assert value == 4
        assert tuple(witness.iter_ranks()) == (1, 2, 2, 2)
        check_witness(witness)

    def test_c2(self):
        assert zero_sumfree_extrema(C2)[0] == 1

    def test_c6(self):
        value, witness = zero_sumfree_extrema(C6)[:2]
        assert value == 5
        assert tuple(witness.iter_ranks()) == (1, 1, 1, 1, 1)

    def test_agrees_with_formula_on_p_groups(self, p_groups):
        for group in p_groups:
            assert zero_sumfree_extrema(group)[0] == davenport_p_group(group)


class TestMaxCross:
    def test_c33(self):
        value, witness = zero_sumfree_extrema(AbelianGroup((3, 3)))[2:]
        assert value == Fraction(4, 3)
        check_witness(witness)
        assert cross_number(witness) == value

    def test_c2(self):
        value, witness = zero_sumfree_extrema(C2)[2:]
        assert value == Fraction(1, 2)
        assert tuple(witness.iter_ranks()) == (1,)

    def test_c6(self):
        value, witness = zero_sumfree_extrema(C6)[2:]
        assert value == Fraction(7, 6)
        # lexicographically least maximizer: (2)^2 * (3)
        assert tuple(witness.iter_ranks()) == (2, 2, 3)
        check_witness(witness)

    def test_meets_k_star_lower_bound(self):
        for group in [C6, AbelianGroup((2, 6)), AbelianGroup((12,))]:
            assert zero_sumfree_extrema(group)[2] >= k_star(group)


class TestDPair:
    def test_examples(self):
        assert d_pair_bruteforce(C24, DivisorPair(2, 4)) == 2
        assert d_pair_bruteforce(C24, DivisorPair(1, 4)) == 1
        assert d_pair_bruteforce(C24, DivisorPair(1, 2)) == 1
        assert d_pair_bruteforce(C24, DivisorPair(4, 4)) == 5

    def test_witness_avoids_forbidden_subgroup(self):
        length, witness = longest_avoiding(C24, DivisorPair(2, 4))
        assert length == len(witness) == 1
        check_witness(witness, _subgroup_mask(C24, 2))

    def test_non_p_group_full_pair(self):
        # C2xC6 reduces to itself, which has no closed form, so d_pair_value searches
        assert reduced_group(AbelianGroup((2, 6)), DivisorPair(6, 6)) == AbelianGroup((2, 6))
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
        assert len(witness) == davenport_p_group(C24) - 1
        assert max_order_count(witness) == value
        check_witness(witness)

    def test_delta_range(self, monkeypatch):
        from zerosum import search

        def no_set_up(*args):
            raise AssertionError("the search is set up before delta is checked")

        # a bad delta or a group that is not a p-group is refused before the
        # tables and the cut, which cost seconds at |G| = 10^6, are built
        monkeypatch.setattr(search, "_path_cut", no_set_up)
        with pytest.raises(ValueError):
            gamma_exact(C24, 4)
        with pytest.raises(ValueError):
            gamma_exact(C24, -1)
        with pytest.raises(ValueError, match="not a p-group"):
            gamma_exact(C6, 0)

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
            zero_sumfree_extrema(AbelianGroup((2, 8)), tiny)
        assert info.value.nodes_visited > 0
        assert 0 < info.value.elapsed_seconds < 60

    def test_time_budget_reports_elapsed_time(self):
        # the clock is read after each task, the first of C5xC5 (rank 24)
        # entering 4 nodes, and at every 2048th node of a task: the cut scan
        # has one, of root 1 and 3,407 nodes
        from zerosum.search import run_scan
        c55 = AbelianGroup((5, 5))
        instant = SearchBudget(max_seconds=1e-9)
        for symmetric, stopping in ((False, 4), (True, 2048)):
            with pytest.raises(BudgetExceededError) as info:
                run_scan(c55, extrema_acc(c55), budget=instant, allowed=(1 << 25) - 2,
                         symmetric=symmetric)
            assert info.value.nodes_visited == stopping
            assert info.value.elapsed_seconds > 1e-9

    @pytest.mark.parametrize("factors, max_nodes",
                             [((5, 5), 30_000), ((3, 9), 100_000), ((6, 6), 100_000)],
                             ids=str)
    def test_node_budget_bounds_the_nodes_entered(self, factors, max_nodes,
                                                  monkeypatch, usable_cpus):
        # every root in this process: each task is held to the nodes the
        # scan has left, so the walk enters no more than the budget and one
        from zerosum.search import run_scan
        group = AbelianGroup(factors)
        entered = [0]
        real_enter = _ExtremaAcc.enter

        def counting_enter(acc, path):
            entered[0] += 1
            return real_enter(acc, path)

        monkeypatch.setattr(_ExtremaAcc, "enter", counting_enter)
        usable_cpus(1)
        with pytest.raises(BudgetExceededError) as info:
            run_scan(group, extrema_acc(group), budget=SearchBudget(max_nodes=max_nodes),
                     allowed=(1 << group.cardinality) - 2)
        assert info.value.nodes_visited == max_nodes + 1
        assert max_nodes <= entered[0] <= max_nodes + 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(max_nodes=0)
        with pytest.raises(ValueError):
            SearchBudget(max_seconds=float("nan"))
        with pytest.raises(ValueError):
            SearchBudget(max_seconds=float("inf"))

    @pytest.mark.parametrize("value", ["1", None, [1], True, False], ids=repr)
    def test_time_budget_must_be_a_number(self, value):
        # a bool is no number of seconds, and the others have no order with 0
        with pytest.raises(ValueError, match=f"max_seconds {re.escape(repr(value))} "
                                             "is not a number"):
            SearchBudget(max_seconds=value)

    def test_default_width_is_usable_cpus(self, forked_scans, monkeypatch):
        # C3xC3 runs its last root in-process and forks one worker per usable
        # CPU for the 7 roots left, at most 7; on one CPU it forks none
        from zerosum import search
        monkeypatch.setattr(search, "_usable_cpus", _usable_cpus)
        cpus = _usable_cpus()
        if hasattr(os, "sched_getaffinity"):
            assert cpus == sorted(os.sched_getaffinity(0))
        c33 = AbelianGroup((3, 3))
        search.run_scan(c33, extrema_acc(c33))
        width = min(len(cpus), 7)
        assert len(forked_scans) == (width if width >= 2 else 0)

    def test_worker_count_is_clamped(self, forked_scans, monkeypatch, usable_cpus):
        # after its last root in-process, C3xC3 has 7 roots left, C2xC2 two
        from zerosum.search import run_scan
        c33 = AbelianGroup((3, 3))
        for width, group, forks in ((4, c33, 4), (8, c33, 7), (4, C22, 2), (1, c33, 0)):
            usable_cpus(width)
            forked_scans.clear()
            run_scan(group, extrema_acc(group))
            assert len(forked_scans) == forks, (width, group)
        usable_cpus(4)
        monkeypatch.delattr(os, "fork")
        forked_scans.clear()
        run_scan(c33, extrema_acc(c33))
        assert not forked_scans

    def test_unread_affinity_pins_no_worker(self, forked_scans, monkeypatch):
        # without sched_getaffinity the CPUs are os.cpu_count() Nones, and a
        # scan forks as many unpinned workers, with the nodes of one process
        from zerosum import search
        monkeypatch.setattr(search, "_usable_cpus", _usable_cpus)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _usable_cpus() == [None]
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _usable_cpus() == [None, None, None]
        c33 = AbelianGroup((3, 3))
        _, nodes = search.run_scan(c33, extrema_acc(c33))
        assert len(forked_scans) == 3
        assert nodes == 184


class TestDeterminism:
    def test_results_independent_of_worker_count(self, usable_cpus):
        groups = [C24, AbelianGroup((3, 3)), AbelianGroup((2, 2, 4))]
        for group in groups:
            runs = []
            for width in (1, 4, 8):
                usable_cpus(width)
                d_val, d_wit, k_val, k_wit = zero_sumfree_extrema(group)
                g_val, g_wit = gamma_exact(group, 0)
                runs.append((d_val, tuple(d_wit.iter_ranks()),
                             k_val, tuple(k_wit.iter_ranks()),
                             g_val, tuple(g_wit.iter_ranks())))
            assert runs[0] == runs[1] == runs[2]

    def test_node_counts_independent_of_worker_count(self, usable_cpus):
        from zerosum.search import run_scan
        for width in (1, 2, 8):
            usable_cpus(width)
            _, nodes = run_scan(C24, extrema_acc(C24))
            assert nodes == 94  # total zero-sumfree sequences in C2xC4

    def test_budget_is_frozen(self):
        budget = SearchBudget()
        with pytest.raises(dataclasses.FrozenInstanceError):
            budget.max_nodes = 5


class _AffinityAcc:
    """Records the CPUs its process may run on at its first enter."""

    def __init__(self):
        self.cpus = None

    def enter(self, path):
        if self.cpus is None:
            self.cpus = frozenset(os.sched_getaffinity(0))
            time.sleep(0.05)  # so that the other worker takes the next task
        return True

    def leave(self, path):
        pass


class TestForkedWorkers:
    """Widths 1, 2 and 4 with the fork gate at 0, so that wider scans run
    all but their last root task in worker processes."""

    def test_accumulators_match_across_widths(self, forked_scans, usable_cpus):
        from zerosum.search import _gamma_scan, _subgroup_mask, run_scan
        c55 = AbelianGroup((5, 5))
        c888 = AbelianGroup((8, 8, 8))
        pair = DivisorPair(2, 4)
        forbidden = _subgroup_mask(c888, pair.quotient)
        allowed = _subgroup_mask(c888, pair.d) & ~forbidden

        def summary(width):
            # every scan here walks every root, so each one forks
            usable_cpus(width)
            extrema, n_extrema = run_scan(c55, extrema_acc(c55))
            avoid, n_avoid = run_scan(c888, extrema_acc(c888),
                                      allowed=allowed, forbidden_mask=forbidden)
            longest = max(avoid, key=lambda acc: acc.best_len)
            return ([(a.best_len, a.best) for a in extrema], n_extrema,
                    [(a.best_scaled, a.best_cross) for a in extrema],
                    _gamma_scan(c55, 1, None),
                    n_avoid, longest.best_len, longest.best)

        runs = []
        for width in (1, 2, 4):
            forked_scans.clear()
            runs.append(summary(width))
            assert len(forked_scans) == (0 if width == 1 else 3 * width)
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][1] == 138_864
        assert runs[0][4:] == (15_736, 3, (2, 16, 128))

    def test_enumeration_visits_in_lexicographic_order(self, forked_scans, usable_cpus):
        group = AbelianGroup((3, 3))
        visits = []
        for width in (1, 2):
            seen = []
            usable_cpus(width)
            count = enumerate_zero_sumfree(group, 3, seen.append)
            visits.append([tuple(s.iter_ranks()) for s in seen])
            assert count == len(seen) > 0
        assert forked_scans
        assert visits[0] == visits[1] == sorted(visits[0])

    def test_node_budget_covers_the_whole_scan(self, forked_scans, usable_cpus):
        # C5xC5 walks 138,864 nodes from every root, the largest task 23,113
        from zerosum.search import run_scan
        c55 = AbelianGroup((5, 5))
        budget = SearchBudget(max_nodes=30_000)
        for width in (1, 2):
            usable_cpus(width)
            with pytest.raises(BudgetExceededError) as info:
                run_scan(c55, extrema_acc(c55), budget=budget, allowed=(1 << 25) - 2)
            assert str(info.value) == "node budget 30000 exhausted"
            assert info.value.nodes_visited == 30_001
        assert forked_scans

    def test_time_budget_covers_the_whole_scan(self, forked_scans, usable_cpus):
        # each task of C10xC10 at length 2 enters fewer than 2048 nodes
        budget = SearchBudget(max_seconds=1e-9)
        for width in (1, 2):
            usable_cpus(width)
            with pytest.raises(BudgetExceededError, match="time budget exhausted"):
                enumerate_zero_sumfree(AbelianGroup((10, 10)), 2, budget=budget)

    def test_time_budget_reports_the_scan_total(self, forked_scans, monkeypatch,
                                                usable_cpus):
        # A fake clock, past the deadline once this process has entered 40,000
        # nodes or has forked. At width 1 the scan stops inside task 19 at its
        # next 2048th node, which is counted but not entered. At width 2 the
        # parent runs the last task and forks; the first worker to report has
        # entered 2,047 nodes of task 0 or 1 and counted the 2,048th.
        from types import SimpleNamespace
        from zerosum import search
        c66 = AbelianGroup((6, 6))
        entered = [0]
        real_enter = _ExtremaAcc.enter

        def counting_enter(acc, path):
            entered[0] += 1
            return real_enter(acc, path)

        monkeypatch.setattr(_ExtremaAcc, "enter", counting_enter)
        monkeypatch.setattr(search, "time", SimpleNamespace(
            monotonic=lambda: float(entered[0] >= 40_000 or bool(forked_scans))))
        budget = SearchBudget(max_seconds=0.5)
        for width, stopping in ((1, 1), (2, 2048)):
            entered[0] = 0
            usable_cpus(width)
            with pytest.raises(BudgetExceededError, match="time budget exhausted") as info:
                search.run_scan(c66, extrema_acc(c66), budget=budget,
                                allowed=(1 << 36) - 2)
            assert info.value.nodes_visited == entered[0] + stopping
            assert info.value.elapsed_seconds == 1.0
        assert forked_scans

    def test_worker_budget_error_reaches_caller(self, forked_scans, usable_cpus):
        # the last root task of C5xC5 (4 nodes) runs in-process; task 0 forks
        from zerosum.search import run_scan
        c55 = AbelianGroup((5, 5))
        usable_cpus(2)
        budget = SearchBudget(max_nodes=1000)
        with pytest.raises(BudgetExceededError) as info:
            run_scan(c55, extrema_acc(c55), budget=budget, allowed=(1 << 25) - 2)
        assert forked_scans
        assert str(info.value) == "node budget 1000 exhausted"
        assert info.value.nodes_visited == 1001
        assert info.value.elapsed_seconds > 0

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="needs two usable CPUs and sched_setaffinity")
    def test_workers_run_on_distinct_cpus(self, forked_scans, usable_cpus):
        # C3xC3 has 8 roots: the last runs in-process, 7 go to two workers
        from zerosum.search import run_scan
        c33 = AbelianGroup((3, 3))
        usable_cpus(2)
        accs, _ = run_scan(c33, _AffinityAcc)
        assert len(forked_scans) == 2
        forked = [acc.cpus for acc in accs[:-1]]
        assert all(len(cpus) == 1 for cpus in forked), forked
        assert len(set(forked)) == 2, forked

    def test_dead_worker_is_an_error(self, forked_scans, monkeypatch, usable_cpus):
        from zerosum import search
        from zerosum.errors import InternalCheckError
        parent = os.getpid()
        real_scan = search._scan_from

        def dying_scan(*args):
            if os.getpid() != parent:
                os._exit(3)
            return real_scan(*args)

        monkeypatch.setattr(search, "_scan_from", dying_scan)
        c33 = AbelianGroup((3, 3))
        usable_cpus(2)
        with pytest.raises(InternalCheckError, match="reporting task 0"):
            search.run_scan(c33, extrema_acc(c33), allowed=(1 << 9) - 2)
        assert forked_scans

    def test_worker_exception_keeps_its_type(self, forked_scans, monkeypatch, usable_cpus):
        from zerosum import search
        parent = os.getpid()
        real_scan = search._scan_from

        def failing_scan(*args):
            if os.getpid() != parent:
                raise ZeroDivisionError("in a worker")
            return real_scan(*args)

        monkeypatch.setattr(search, "_scan_from", failing_scan)
        c33 = AbelianGroup((3, 3))
        usable_cpus(2)
        with pytest.raises(ZeroDivisionError, match="in a worker"):
            search.run_scan(c33, extrema_acc(c33))
        assert forked_scans

    @pytest.mark.parametrize("cut", [5, 8, 20], ids=lambda n: f"{n}-bytes")
    def test_result_cut_short_is_an_error(self, cut, forked_scans, monkeypatch,
                                          usable_cpus):
        # a worker that ends inside its first result, in the length or after it
        from zerosum import search
        from zerosum.errors import InternalCheckError
        parent = os.getpid()
        real_write = os.write

        def cut_write(fd, data):
            if os.getpid() != parent:
                real_write(fd, bytes(data[:cut]))
                os._exit(3)
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", cut_write)
        c33 = AbelianGroup((3, 3))
        usable_cpus(2)
        with pytest.raises(InternalCheckError, match="reporting task 0"):
            search.run_scan(c33, extrema_acc(c33))
        assert forked_scans

    def test_task_window_refills(self, monkeypatch, usable_cpus):
        # at the real fork gate, enumerating C20xC20 at length 2 runs the last
        # 199 roots in-process and hands the 200 left to two workers, more
        # than the task pipe holds at once
        from zerosum import search
        handed = []
        real_run_forked = search._run_forked

        def recording(cpus, count, *args):
            handed.append((len(cpus), count))
            return real_run_forked(cpus, count, *args)

        monkeypatch.setattr(search, "_run_forked", recording)
        group = AbelianGroup((20, 20))
        counts = []
        for width in (1, 2):
            usable_cpus(width)
            counts.append(enumerate_zero_sumfree(group, 2))
        assert handed == [(2, 200)]
        assert 200 > search._TASK_WINDOW
        assert counts == [79_599, 79_599]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


# the conftest groups, and three whose orbit cut is large
ORBIT_CUT_FACTORS = P_GROUP_FACTORS + NON_P_FACTORS + [(5, 5), (3, 9), (2, 2, 8)]


def _chains(bound: int, head: tuple[int, ...] = ()) -> list[tuple[int, ...]]:
    """Invariant-factor chains extending ``head`` with |G|^max(rank, 2) <= bound."""
    out = [head] if head else []
    rank = len(head) + 1
    n = head[-1] if head else 2
    while math.prod(head + (n,)) ** max(rank, 2) <= bound:
        out += _chains(bound, head + (n,))
        n += head[-1] if head else 1
    return out


# the groups small enough to list Aut(G): C_n up to n = 70 and, of rank two
# or more, |G|^rank <= 5,000
SMALL_GROUP_FACTORS = _chains(5_000)


class TestOrbitCut:
    """The searches cut by the checked automorphisms (``_PathCut``) against
    the walk of every root: the same values and witness ranks; and the root
    classes against two oracles."""

    @pytest.mark.parametrize("factors", ORBIT_CUT_FACTORS, ids=str)
    def test_reduced_searches_match_every_root(self, factors, forked_scans, usable_cpus):
        from zerosum.formulas import divisor_pairs
        from zerosum.search import _gamma_scan, run_scan
        group = AbelianGroup(factors)
        deltas = range(davenport_p_group(group)) if group.is_p_group else ()
        # every root, walked once: its results do not depend on the width
        # (TestForkedWorkers), so the reduced searches at each width meet it
        accs, _ = run_scan(group, extrema_acc(group), allowed=(1 << group.cardinality) - 2)
        d_acc = max(accs, key=lambda acc: acc.best_len)
        k_acc = max(accs, key=lambda acc: acc.best_scaled)
        want = [d_acc.best_len, d_acc.best, Fraction(k_acc.best_scaled, group.exponent),
                k_acc.best_cross]
        for pair in divisor_pairs(group):
            forbidden = _subgroup_mask(group, pair.quotient)
            allowed = _subgroup_mask(group, pair.d) & ~forbidden
            if allowed:
                accs, _ = run_scan(group, extrema_acc(group), allowed=allowed,
                                   forbidden_mask=forbidden)
                best = max(accs, key=lambda acc: acc.best_len)
                want += [best.best_len, best.best]
            else:
                want += [0, ()]
        for delta in deltas:
            want += _gamma_scan(group, delta, None)[:2]
        for width in (1, 2):
            usable_cpus(width)
            d, d_wit, k, k_wit = zero_sumfree_extrema(group)
            got = [d, tuple(d_wit.iter_ranks()), k, tuple(k_wit.iter_ranks())]
            for pair in divisor_pairs(group):
                length, witness = longest_avoiding(group, pair)
                got += [length, tuple(witness.iter_ranks())]
            for delta in deltas:
                value, witness = gamma_exact(group, delta)
                got += [value, tuple(witness.iter_ranks())]
            assert got == want, width

    @pytest.mark.parametrize("factors", ORBIT_CUT_FACTORS, ids=str)
    def test_root_filter_is_level_zero_of_the_cut(self, factors, forked_scans, monkeypatch,
                                                  usable_cpus):
        """A ``symmetric`` scan makes one accumulator per nonzero rank least
        in its Aut(G) orbit, the roots in ascending order; they give the d
        and k, witness ranks and total nodes of ``zero_sumfree_extrema``."""
        from zerosum.search import run_scan
        group = AbelianGroup(factors)
        minima = aut_orbit_minima(group) & ~1
        nodes = scan_nodes(monkeypatch)
        for width in (1, 2):
            usable_cpus(width)
            d, d_wit, k, k_wit = zero_sumfree_extrema(group)
            accs, total = run_scan(group, extrema_acc(group), symmetric=True)
            # every root is entered, so it heads its task's first longest path
            assert [acc.best[0] for acc in accs] == [
                r for r in range(group.cardinality) if minima >> r & 1], width
            d_acc = max(accs, key=lambda acc: acc.best_len)
            k_acc = max(accs, key=lambda acc: acc.best_scaled)
            assert ([d_acc.best_len, d_acc.best,
                     Fraction(k_acc.best_scaled, group.exponent), k_acc.best_cross, total]
                    == [d, tuple(d_wit.iter_ranks()), k, tuple(k_wit.iter_ranks()),
                        nodes[-1]]), width

    @pytest.mark.parametrize("factors", SMALL_GROUP_FACTORS, ids=str)
    def test_classes_are_the_aut_orbits(self, factors):
        from zerosum.search import _path_cut
        cut = _path_cut(factors)
        assert cut[cut.full] == aut_orbit_minima(AbelianGroup(factors))

    @pytest.mark.parametrize("factors", SMALL_GROUP_FACTORS, ids=str)
    def test_cut_enters_every_stabiliser_minimum(self, factors):
        """Below an orbit-minimum root m, and below every (m, h), the cut
        enters each rank least in its orbit under the listed automorphisms
        that fix every rank of the path, so it keeps the next rank of the
        least optimiser; on a group of rank two or more it acts."""
        from zerosum.search import _path_cut
        group = AbelianGroup(factors)
        size = group.cardinality
        cut = _path_cut(factors)
        roots = cut[cut.full]
        acted = False
        for m in range(1, size):
            if not roots >> m & 1:
                continue
            for path in [(m,)] + [(m, h) for h in range(m, size)]:
                fix = cut.full
                for r in path:
                    fix &= cut.fixes[r]
                if fix:
                    acted = True
                    assert aut_orbit_minima(group, path) & ~cut[fix] == 0, path
        assert acted or len(factors) == 1

    def test_a_map_that_is_not_an_automorphism_is_refused(self, monkeypatch):
        # (k, a, i, b): coordinate k of x becomes a*x_k + b*x_i, on C2xC4
        from zerosum import search
        from zerosum.errors import InternalCheckError
        generators = search._generators
        for bad, why in (((0, 2, 0, 0), "not a bijection"),     # e_0 -> 2 e_0
                         ((1, 2, 1, 0), "not a bijection"),     # e_1 -> 2 e_1
                         ((1, 2, 0, 2), "not a bijection"),     # e_1 -> 2 e_1, e_0 -> e_0 + 2 e_1
                         ((1, 1, 0, 1), "not well defined")):   # e_0 -> e_0 + e_1
            def corrupted(factors, bad=bad):
                yield from generators(factors)
                yield bad
            monkeypatch.setattr(search, "_generators", corrupted)
            with pytest.raises(InternalCheckError, match=why):
                search._PathCut((2, 4))

    def test_cyclic_classes_are_the_divisors(self):
        # Aut(C_n) = (Z/n)^* has one orbit per order d | n, least rank n/d; the
        # greedy generating set of the units reaches every one
        from zerosum.search import _path_cut
        for n in range(2, 400):
            want = 1 | sum(1 << n // d for d in range(2, n + 1) if n % d == 0)
            cut = _path_cut((n,))
            assert cut[cut.full] == want, n


class TestRouteIndependence:
    """The search route and the checking route share no symmetry code: the
    cut searches read no height, and the height checks build no cut."""

    def test_searches_read_no_height(self, monkeypatch):
        from zerosum import GroupElement, search
        group = AbelianGroup((2, 4, 4))
        pair = DivisorPair(2, 4)

        def searches():
            return (zero_sumfree_extrema(group), gamma_exact(group, 1),
                    longest_avoiding(group, pair))

        want = searches()

        def no_height(self):
            raise AssertionError("the search route read a height")

        monkeypatch.setattr(GroupElement, "height", no_height)
        search._path_cut.cache_clear()
        assert searches() == want

    def test_checks_build_no_cut(self, monkeypatch):
        from zerosum import check_heights, search

        def no_cut(*args):
            raise AssertionError("the checking route built the cut")

        monkeypatch.setattr(search, "_path_cut", no_cut)
        for report in (check_heights(C24), check_cross_number_conjecture(C24)):
            assert report.verdict == "verified"
            assert report.nodes_visited > 0


def scan_nodes(monkeypatch, tasks: list | None = None):
    """The list to which every later ``run_scan`` appends its node total;
    it appends its task count to ``tasks``, if given."""
    from zerosum import search
    nodes = []
    run_scan = search.run_scan

    def counting(*args, **kwargs):
        accs, total = run_scan(*args, **kwargs)
        nodes.append(total)
        if tasks is not None:
            tasks.append(len(accs))
        return accs, total

    monkeypatch.setattr(search, "run_scan", counting)
    return nodes


class TestPinnedCounts:
    """Node counts and witnesses that pruning and translation changes must
    keep: of the walk of every root, and of the searches cut by the checked
    automorphisms (``_PathCut``)."""

    def test_c5xc5_scans(self, monkeypatch):
        from zerosum.search import run_scan
        group = AbelianGroup((5, 5))
        assert run_scan(group, extrema_acc(group))[1] == 138_864
        nodes = scan_nodes(monkeypatch)
        d_val, d_wit, k_val, k_wit = zero_sumfree_extrema(group)
        assert nodes == [3_407]  # one task: Aut(C5xC5) is transitive on G - 0
        assert (d_val, k_val) == (8, Fraction(8, 5))
        witness = (1, 1, 1, 1, 5, 5, 5, 5)
        assert tuple(d_wit.iter_ranks()) == witness
        assert tuple(k_wit.iter_ranks()) == witness

    def test_check_walks_every_root(self):
        # the checking route takes neither the orbit cut nor the cut below it
        report = check_cross_number_conjecture(AbelianGroup((3, 9)))
        assert report.nodes_visited == 255_946

    def test_forbidden_allowed_elements_are_never_entered(self):
        from zerosum.search import run_scan
        # rank 0, the forbidden zero element, allowed or not
        for allowed in (0b11111111, 0b11111110):
            accs, nodes = run_scan(C24, extrema_acc(C24), allowed=allowed)
            assert (len(accs), nodes) == (7, 94)

    def test_gamma_c2xc2xc8(self, monkeypatch):
        from zerosum.search import _gamma_scan
        group = AbelianGroup((2, 2, 8))
        every_root = _gamma_scan(group, 1, None)
        assert every_root[2] == 508_814
        nodes = scan_nodes(monkeypatch)
        value, witness = gamma_exact(group, 1)
        assert nodes == [10_156]
        assert (value, tuple(witness.iter_ranks())) == every_root[:2]

    def test_longest_avoiding_c8x8x8_subgroup(self, monkeypatch):
        # forbidden set G_2 (8 elements), allowed G_4 minus G_2 (56 elements)
        from zerosum.search import _subgroup_mask, run_scan
        group = AbelianGroup((8, 8, 8))
        pair = DivisorPair(2, 4)
        forbidden = _subgroup_mask(group, pair.quotient)
        accs, nodes = run_scan(group, extrema_acc(group),
                               allowed=_subgroup_mask(group, pair.d) & ~forbidden,
                               forbidden_mask=forbidden)
        assert (len(accs), nodes) == (56, 15_736)
        nodes = scan_nodes(monkeypatch)
        length, witness = longest_avoiding(group, pair)
        assert nodes == [3]
        assert length == len(witness) == 3
        assert tuple(witness.iter_ranks()) == (2, 16, 128)

    def test_longest_avoiding_c42(self, monkeypatch):
        # one task per allowed order, as Aut(C42) has one orbit per divisor
        group = AbelianGroup((42,))
        tasks = []
        nodes = scan_nodes(monkeypatch, tasks)
        for pair, witness in ((DivisorPair(7, 42), (1,) * 6), (DivisorPair(2, 42), (1,))):
            length, found = longest_avoiding(group, pair)
            assert (length, tuple(found.iter_ranks())) == (len(witness), witness)
        assert tasks == [4, 4]
        assert nodes == [6_820, 4]


class _LogAcc:
    """Logs every enter and leave; checks that each leave closes the path
    last entered."""

    def __init__(self):
        self.log = []
        self.open = []

    def enter(self, path):
        self.log.append(tuple(path))
        self.open.append(tuple(path))
        return True

    def leave(self, path):
        assert self.open.pop() == tuple(path)

    def entered(self):
        assert not self.open
        return self.log


def _acc_state(acc):
    return tuple(getattr(acc, name) for name in type(acc).__slots__)


def _scan_summary(scan):
    accs, nodes = scan
    return [_acc_state(acc) for acc in accs], nodes


class TestBlockedMaskKernel:
    """``run_scan`` against ``reference_scan``, the earlier per-index walk:
    the same accumulator state per root task and the same total nodes."""

    @staticmethod
    def _cases(group):
        from zerosum.search import _CountAcc, _MinMaxOrderAcc
        from zerosum.verifier import _ViolationAcc
        orders, exp = _rank_lists(group.invariant_factors)[0], group.exponent
        accs, _ = reference_scan(group, extrema_acc(group))
        d = max(acc.best_len for acc in accs)
        is_max = [1 if o == exp else 0 for o in orders]
        cross = [exp // o for o in orders]
        short, gamma_len = min(3, d), max(1, d - 1)
        return [
            (extrema_acc(group), None),
            (lambda: _CountAcc(short, True), short),
            (lambda: _MinMaxOrderAcc(is_max, gamma_len), gamma_len),
            # cross number above 1 at length >= 2: a counterexample prunes
            (lambda: _ViolationAcc(cross, 2, exp), None),
        ]

    def test_matches_reference_walk(self, forked_scans, usable_cpus):
        """The scan of the allowed ranks against the reference's
        accumulators of the same roots, less the forbidden ones, which the
        reference skips."""
        from zerosum.search import _subgroup_mask, run_scan

        def same(group, factory, allowed=None, forbidden_mask=1, max_depth=None):
            kwargs = dict(forbidden_mask=forbidden_mask, max_depth=max_depth)
            accs, nodes = reference_scan(group, factory, allowed=allowed, **kwargs)
            if allowed is None:
                allowed = [r for r in range(group.cardinality)
                           if not (forbidden_mask >> r) & 1]
            want = ([_acc_state(acc) for g, acc in zip(allowed, accs)
                     if not (forbidden_mask >> g) & 1], nodes)
            for width in (1, 2):
                usable_cpus(width)
                got = run_scan(group, factory, allowed=sum(1 << r for r in allowed),
                               **kwargs)
                assert _scan_summary(got) == want, (group, kwargs, width)
            return nodes

        for factors in P_GROUP_FACTORS + NON_P_FACTORS:
            group = AbelianGroup(factors)
            for factory, depth in self._cases(group):
                same(group, factory, max_depth=depth)
        # a d-pair forbidden subgroup, G_2 in C8xC8xC8, with the allowed set
        # G_4 minus G_2 as longest_avoiding takes it, then all of G_4
        group, pair = AbelianGroup((8, 8, 8)), DivisorPair(2, 4)
        forbidden = _subgroup_mask(group, pair.quotient)
        g4 = [r for r, o in enumerate(_rank_lists(group.invariant_factors)[0]) if pair.d % o == 0]
        for allowed in ([r for r in g4 if not (forbidden >> r) & 1], g4):
            assert same(group, extrema_acc(group), allowed=allowed,
                        forbidden_mask=forbidden) == 15_736
        # every rank allowed, the zero element forbidden
        assert same(C24, extrema_acc(C24), allowed=list(range(8))) == 94
        assert forked_scans

    def test_root_task_walks_its_reference_subtree(self, forked_scans, usable_cpus):
        """Root g's task enters exactly the reference paths of root g, in
        order; at depth 1 it enters (g,) alone. Every enter has its leave."""
        from zerosum.search import run_scan
        for group in (C24, AbelianGroup((3, 3)), AbelianGroup((2, 2, 4))):
            ref_accs, _ = reference_scan(group, _LogAcc)
            want = [acc.entered() for acc in ref_accs]
            for width in (1, 2):
                usable_cpus(width)
                accs, nodes = run_scan(group, _LogAcc)
                assert [acc.entered() for acc in accs] == want
                assert nodes == sum(map(len, want))
            accs, nodes = run_scan(group, _LogAcc, max_depth=1)
            roots = range(1, group.cardinality)
            assert [acc.entered() for acc in accs] == [[(g,)] for g in roots]
            assert nodes == group.cardinality - 1
        assert forked_scans

    def test_translates_only_nodes_that_descend(self, monkeypatch, usable_cpus):
        """One translate per node entered that descends: every node of an
        unbounded scan, but not the leaves of a depth-capped one."""
        from zerosum import search
        from zerosum.groups import GroupTables
        from zerosum.search import _gamma_scan, run_scan
        calls = [0]
        translate = GroupTables.translate

        def counting_translate(tables, mask, g):
            calls[0] += 1
            return translate(tables, mask, g)

        descends = [0]

        class CountingAcc(search._MinMaxOrderAcc):
            __slots__ = ()

            def enter(self, path):
                down = super().enter(path)
                descends[0] += down and len(path) < self.target
                return down

        monkeypatch.setattr(GroupTables, "translate", counting_translate)
        monkeypatch.setattr(search, "_MinMaxOrderAcc", CountingAcc)
        usable_cpus(1)
        c55 = AbelianGroup((5, 5))
        _, nodes = run_scan(c55, extrema_acc(c55))
        assert calls[0] == nodes == 138_864
        calls[0] = 0
        _, _, nodes = _gamma_scan(AbelianGroup((2, 2, 8)), 1, None)
        assert calls[0] == descends[0] < nodes


# entry points that take an exact integer, each given a value in its place
EXACT_INTEGER_INPUTS = {
    "SearchBudget max_nodes": lambda x: SearchBudget(max_nodes=x),
    "GSequence rank": lambda x: GSequence(C24, ((x, 1),)),
    "GSequence multiplicity": lambda x: GSequence(C24, ((1, x),)),
    "DivisorPair d'": lambda x: DivisorPair(x, 4),
    "DivisorPair d": lambda x: DivisorPair(1, x),
    "gamma_bounds delta": lambda x: gamma_bounds(C24, x),
    "gamma_exact delta": lambda x: gamma_exact(C24, x),
    "gamma_extremal_sequence delta": lambda x: gamma_extremal_sequence(C24, x),
    "enumerate_zero_sumfree length": lambda x: enumerate_zero_sumfree(C24, x),
    "order-divisibility threshold": lambda x: check_order_divisibility(C24, threshold=x),
    "order_filter d": lambda x: order_filter(GSequence.empty(C24), x, "divides"),
}


@pytest.mark.parametrize("value", [1.0, True, "1"], ids=repr)
@pytest.mark.parametrize("entry", EXACT_INTEGER_INPUTS)
def test_exact_quantities_refuse_floats_bools_and_strings(entry, value):
    with pytest.raises(ValueError, match="is not an integer"):
        EXACT_INTEGER_INPUTS[entry](value)
