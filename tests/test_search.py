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
from zerosum import _kernel
from zerosum.search import (_cross_weights, _ExtremaAcc, _rank_lists, _subgroup_mask,
                            _usable_cpus)
from zerosum.sequences import check_witness, cross_number
from conftest import (NON_P_FACTORS, P_GROUP_FACTORS, all_zero_sumfree_multisets,
                      aut_orbit_minima, elementary_map_by_coordinates, reference_scan)

C2 = AbelianGroup((2,))
C3 = AbelianGroup((3,))
C6 = AbelianGroup((6,))
C24 = AbelianGroup((2, 4))
C22 = AbelianGroup((2, 2))


def each_kernel(monkeypatch):
    """Pin the search to each kernel in turn, the Python one and then the
    compiled one where it can be built; yields the compiled module or None."""
    compiled = _kernel.load()
    for module in (None, compiled) if compiled else (None,):
        monkeypatch.setattr(_kernel, "load", lambda module=module: module)
        yield module


def extrema_kwargs(group):
    """The d(G)/k(G) accumulator factory and weights, as keywords of
    ``run_scan`` on ``group``."""
    return dict(acc_factory=_ExtremaAcc, weights=_cross_weights(group))


def dpair_mask(group, pair):
    """The one forbidden mask of the d-pair walk: G_{d/d'} and every rank
    outside G_d, read from each element's order."""
    return sum(1 << e.rank for e in group.elements()
               if pair.quotient % e.order() == 0 or pair.d % e.order())


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

    def test_no_task_keeps_a_path(self, kernel):
        # d(C2xC2) = 2: no task reaches length 3, so a compiled Scan keeps
        # no path and has no buffer of kept ranks
        seen = []
        assert enumerate_zero_sumfree(C22, 3, seen.append) == 0
        assert seen == []

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

    @pytest.mark.parametrize("symmetric", [False, True], ids=["uncut", "cut"])
    def test_root_is_held_to_the_task_allowance(self, symmetric):
        # the task of C5xC5's root 1, the least rank of its one class under
        # the cut: the root is entered like any child, so an allowance of 0
        # enters nothing, 1 the root alone and 2 the root and its first child
        from zerosum.groups import tables_for
        from zerosum.search import _path_cut, _scan_from

        class Entered:
            def __init__(self):
                self.paths = []

            def enter(self, node):
                self.paths.append(tuple(node[0]))
                return True

        tables = tables_for(AbelianGroup((5, 5)))
        cut = _path_cut((5, 5)) if symmetric else None
        for allowance, paths in ((0, []), (1, [(1,)]), (2, [(1,), (1, 1)])):
            acc = Entered()
            assert _scan_from(tables, 1, 1, acc, bytes(25), allowance, math.inf,
                              cut) == allowance + 1
            assert acc.paths == paths

    @pytest.mark.parametrize("width", [1, 2])
    def test_c5x5_node_threshold(self, usable_cpus, width):
        # C5xC5 is one class under the cut: one root task of 3,407 nodes
        c55 = AbelianGroup((5, 5))
        usable_cpus(width)
        with pytest.raises(BudgetExceededError) as info:
            zero_sumfree_extrema(c55, SearchBudget(max_nodes=3406))
        assert info.value.nodes_visited == 3407
        assert zero_sumfree_extrema(c55, SearchBudget(max_nodes=3407))[0] == 8

    def test_time_budget_reports_elapsed_time(self):
        # the clock is read after each task, the first of C5xC5 (rank 24)
        # entering 4 nodes, and at every 2048th node of a task: the cut scan
        # has one, of root 1 and 3,407 nodes
        from zerosum.search import run_scan
        c55 = AbelianGroup((5, 5))
        instant = SearchBudget(max_seconds=1e-9)
        for symmetric, stopping in ((False, 4), (True, 2048)):
            with pytest.raises(BudgetExceededError) as info:
                run_scan(c55, **extrema_kwargs(c55), budget=instant, symmetric=symmetric)
            assert info.value.nodes_visited == stopping
            assert info.value.elapsed_seconds > 1e-9

    @pytest.mark.parametrize("factors, max_nodes",
                             [((5, 5), 30_000), ((3, 9), 100_000), ((6, 6), 100_000)],
                             ids=str)
    def test_node_budget_bounds_the_nodes_entered(self, factors, max_nodes, python_kernel,
                                                  monkeypatch, usable_cpus):
        # every root in this process: each task, its root too, is held to the
        # nodes the scan has left, so the exceeded walk enters the budget;
        # on the Python kernel, whose enter calls count the nodes entered
        from zerosum.search import run_scan
        group = AbelianGroup(factors)
        entered = [0]
        real_enter = _ExtremaAcc.enter

        def counting_enter(acc, node):
            entered[0] += 1
            return real_enter(acc, node)

        monkeypatch.setattr(_ExtremaAcc, "enter", counting_enter)
        usable_cpus(1)
        with pytest.raises(BudgetExceededError) as info:
            run_scan(group, **extrema_kwargs(group), budget=SearchBudget(max_nodes=max_nodes))
        assert info.value.nodes_visited == max_nodes + 1
        assert entered[0] == max_nodes

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

    def test_default_width_is_usable_cpus(self, threaded_scans, compiled_kernel, monkeypatch):
        # C3xC3 runs its last root in this thread and starts one thread per
        # usable CPU for the 7 roots left, at most 7; on one CPU it starts none
        from zerosum import search
        monkeypatch.setattr(search, "_usable_cpus", _usable_cpus)
        cpus = _usable_cpus()
        if hasattr(os, "sched_getaffinity"):
            assert cpus == len(os.sched_getaffinity(0))
        c33 = AbelianGroup((3, 3))
        search.run_scan(c33, **extrema_kwargs(c33))
        width = min(cpus, 7)
        assert len(threaded_scans) == (width if width >= 2 else 0)

    def test_worker_count_is_clamped(self, threaded_scans, compiled_kernel, usable_cpus):
        # after its last root in this thread, C3xC3 has 7 roots left, C2xC2
        # two; the count seen need not be the machine's
        from zerosum import search
        c33 = AbelianGroup((3, 3))
        for width, group, threads in ((4, c33, 4), (8, c33, 7), (4, C22, 2), (1, c33, 0)):
            usable_cpus(width)
            assert search._usable_cpus() == width
            threaded_scans.clear()
            search.run_scan(group, **extrema_kwargs(group))
            assert len(threaded_scans) == threads, (width, group)

    def test_unread_affinity_counts_cpu_count(self, threaded_scans, compiled_kernel,
                                              monkeypatch):
        # without sched_getaffinity the count is os.cpu_count(), or 1 where
        # that is unknown, and a scan starts that many threads (none on one
        # CPU), with the nodes of one thread
        from zerosum import search
        monkeypatch.setattr(search, "_usable_cpus", _usable_cpus)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        c33 = AbelianGroup((3, 3))
        for count, width, threads in ((None, 1, 0), (3, 3, 3)):
            monkeypatch.setattr(os, "cpu_count", lambda: count)
            assert _usable_cpus() == width
            threaded_scans.clear()
            _, nodes = search.run_scan(c33, **extrema_kwargs(c33))
            assert len(threaded_scans) == threads, count
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
            _, nodes = run_scan(C24, **extrema_kwargs(C24))
            assert nodes == 94  # total zero-sumfree sequences in C2xC4

    def test_budget_is_frozen(self):
        budget = SearchBudget()
        with pytest.raises(dataclasses.FrozenInstanceError):
            budget.max_nodes = 5


def _in_a_thread() -> bool:
    import threading
    return threading.current_thread() is not threading.main_thread()


class TestThreadedScans:
    """Widths 1, 2 and 4 with the thread gate at 0, so that wider compiled
    scans run all but their last root task on threads."""

    def test_accumulators_match_across_widths(self, threaded_scans, compiled_kernel,
                                              usable_cpus):
        from zerosum.search import _gamma_scan, run_scan
        c55 = AbelianGroup((5, 5))
        c888 = AbelianGroup((8, 8, 8))
        forbidden = dpair_mask(c888, DivisorPair(2, 4))

        def summary(width):
            # every scan here walks every root, so each one starts threads
            usable_cpus(width)
            extrema, n_extrema = run_scan(c55, **extrema_kwargs(c55))
            avoid, n_avoid = run_scan(c888, **extrema_kwargs(c888), forbidden_mask=forbidden)
            longest = max(avoid, key=lambda acc: acc.best_len)
            return ([(a.best_len, a.best) for a in extrema], n_extrema,
                    [(a.best_scaled, a.best_cross) for a in extrema],
                    _gamma_scan(c55, 1, None),
                    n_avoid, longest.best_len, longest.best)

        runs = []
        for width in (1, 2, 4):
            threaded_scans.clear()
            runs.append(summary(width))
            assert len(threaded_scans) == (0 if width == 1 else 3 * width)
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][1] == 138_864
        assert runs[0][4:] == (15_736, 3, (2, 16, 128))

    def test_python_kernel_starts_no_thread(self, threaded_scans, usable_cpus, python_kernel):
        from zerosum.search import _gamma_scan, run_scan
        c55 = AbelianGroup((5, 5))
        runs = []
        for width in (1, 2, 4):
            usable_cpus(width)
            accs, nodes = run_scan(c55, **extrema_kwargs(c55))
            runs.append(([(a.best_len, a.best_scaled) for a in accs], nodes,
                         _gamma_scan(c55, 1, None)))
        assert not threaded_scans
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][1] == 138_864

    def test_enumeration_visits_in_lexicographic_order(self, threaded_scans, compiled_kernel,
                                                       usable_cpus):
        group = AbelianGroup((3, 3))
        visits = []
        for width in (1, 2):
            seen = []
            usable_cpus(width)
            count = enumerate_zero_sumfree(group, 3, seen.append)
            visits.append([tuple(s.iter_ranks()) for s in seen])
            assert count == len(seen) > 0
        assert threaded_scans
        assert visits[0] == visits[1] == sorted(visits[0])

    def test_kept_paths_match_across_kernels_and_widths(self, threaded_scans, compiled_kernel,
                                                        monkeypatch, usable_cpus):
        # C6xC6 at length 4: 53,160 paths in 60,694 nodes, 5,603 of them in
        # one task, so a compiled Scan's buffer of kept ranks doubles from
        # 1,024 ranks five times
        group = AbelianGroup((6, 6))
        totals = scan_nodes(monkeypatch)
        visits = []
        for _ in each_kernel(monkeypatch):
            for width in (1, 2):
                usable_cpus(width)
                seen = []
                assert enumerate_zero_sumfree(group, 4, seen.append) == 53_160
                visits.append([tuple(s.iter_ranks()) for s in seen])
        assert threaded_scans
        assert totals == [60_694] * 4
        assert all(visit == visits[0] for visit in visits[1:])
        assert visits[0] == sorted(visits[0])

    def test_node_budget_covers_the_whole_scan(self, threaded_scans, compiled_kernel,
                                               usable_cpus):
        # C5xC5 walks 138,864 nodes from every root, the largest task 23,113
        from zerosum.search import run_scan
        c55 = AbelianGroup((5, 5))
        budget = SearchBudget(max_nodes=30_000)
        for width in (1, 2):
            usable_cpus(width)
            with pytest.raises(BudgetExceededError) as info:
                run_scan(c55, **extrema_kwargs(c55), budget=budget)
            assert str(info.value) == "node budget 30000 exhausted"
            assert info.value.nodes_visited == 30_001
        assert threaded_scans

    def test_time_budget_covers_the_whole_scan(self, threaded_scans, usable_cpus):
        # each task of C10xC10 at length 2 enters fewer than 2048 nodes
        budget = SearchBudget(max_seconds=1e-9)
        for width in (1, 2):
            usable_cpus(width)
            with pytest.raises(BudgetExceededError, match="time budget exhausted"):
                enumerate_zero_sumfree(AbelianGroup((10, 10)), 2, budget=budget)

    def test_time_budget_reports_the_scan_total(self, threaded_scans, compiled_kernel,
                                                monkeypatch, usable_cpus):
        # A fake clock, past the deadline once the tasks have returned 40,000
        # nodes or a thread has started. At width 1 the scan stops once task
        # 19 has taken the sum past 40,000, with the nodes of the 16 tasks
        # run. At width 2 the last task runs in this thread; each thread is
        # handed the deadline already past, and the first to report has
        # counted 2,048 nodes of task 0 or 1, the 2,048th not entered.
        from types import SimpleNamespace
        from zerosum import search
        c66 = AbelianGroup((6, 6))
        nodes = task_nodes(monkeypatch)
        monkeypatch.setattr(search, "time", SimpleNamespace(
            monotonic=lambda: float(sum(nodes) >= 40_000 or bool(threaded_scans))))
        budget = SearchBudget(max_seconds=0.5)
        for width in (1, 2):
            nodes.clear()
            usable_cpus(width)
            with pytest.raises(BudgetExceededError, match="time budget exhausted") as info:
                search.run_scan(c66, **extrema_kwargs(c66), budget=budget)
            assert info.value.elapsed_seconds == 1.0
            if width == 1:
                assert len(nodes) == 16
                assert info.value.nodes_visited == sum(nodes) > 40_000
            else:
                assert info.value.nodes_visited == nodes[0] + 2048
        assert threaded_scans

    def test_worker_budget_error_reaches_caller(self, threaded_scans, compiled_kernel,
                                                usable_cpus):
        # the last root task of C5xC5 (4 nodes) runs in this thread; task 0
        # on a thread
        from zerosum.search import run_scan
        c55 = AbelianGroup((5, 5))
        usable_cpus(2)
        budget = SearchBudget(max_nodes=1000)
        with pytest.raises(BudgetExceededError) as info:
            run_scan(c55, **extrema_kwargs(c55), budget=budget)
        assert threaded_scans
        assert str(info.value) == "node budget 1000 exhausted"
        assert info.value.nodes_visited == 1001
        assert info.value.elapsed_seconds > 0

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="needs two usable CPUs and sched_getaffinity")
    def test_workers_keep_the_whole_affinity(self, threaded_scans, compiled_kernel,
                                             usable_cpus):
        # C3xC3 has 8 roots: the last runs in this thread, 7 on two threads;
        # no thread is pinned, so each ends with every CPU the process may
        # use, and this thread's affinity is left as it was
        from zerosum.search import run_scan
        c33 = AbelianGroup((3, 3))
        allowed = os.sched_getaffinity(0)
        usable_cpus(2)
        run_scan(c33, **extrema_kwargs(c33))
        assert [thread.cpus for thread in threaded_scans] == [allowed, allowed]
        assert os.sched_getaffinity(0) == allowed

    def test_worker_exception_keeps_its_type(self, threaded_scans, compiled_kernel,
                                             monkeypatch, usable_cpus):
        # the clock raises when a thread reads it to hand a task its deadline
        from types import SimpleNamespace
        from zerosum import search

        def failing_clock():
            if _in_a_thread():
                raise ZeroDivisionError("in a thread")
            return time.monotonic()

        monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=failing_clock))
        c33 = AbelianGroup((3, 3))
        usable_cpus(2)
        with pytest.raises(ZeroDivisionError, match="in a thread"):
            search.run_scan(c33, **extrema_kwargs(c33))
        assert threaded_scans

    def test_only_the_calling_thread_tallies(self, threaded_scans, compiled_kernel,
                                             monkeypatch, usable_cpus):
        # C3xC3 has 8 roots: the last runs in this thread, 7 on two threads,
        # which only walk; each of the 7 tasks is tallied in this thread
        import threading
        from zerosum import search
        callers = []
        run_threads = search._run_threads

        def recording_run_threads(scans, count, run_one, tally):
            def recording_tally(task_nodes):
                callers.append(threading.current_thread())
                tally(task_nodes)
            run_threads(scans, count, run_one, recording_tally)

        monkeypatch.setattr(search, "_run_threads", recording_run_threads)
        c33 = AbelianGroup((3, 3))
        usable_cpus(2)
        search.run_scan(c33, **extrema_kwargs(c33))
        assert len(threaded_scans) == 2
        assert len(callers) == 7
        assert all(caller is threading.current_thread() for caller in callers)

    def test_threads_lose_no_task_on_a_short_switch_interval(self, threaded_scans,
                                                             compiled_kernel, monkeypatch,
                                                             usable_cpus):
        # C20xC20 at length 2: 399 tasks, 398 of them taken from the shared
        # iterator by four threads that switch every microsecond; each task
        # is counted once, with all its nodes
        import sys
        nodes = scan_nodes(monkeypatch)
        group = AbelianGroup((20, 20))
        usable_cpus(1)
        counts = [enumerate_zero_sumfree(group, 2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            usable_cpus(4)
            counts.append(enumerate_zero_sumfree(group, 2))
        finally:
            sys.setswitchinterval(interval)
        assert len(threaded_scans) == 4
        assert counts[0] == counts[1] and nodes[0] == nodes[1]

    def test_no_task_starts_after_the_first_failure(self, threaded_scans, compiled_kernel,
                                                    monkeypatch, usable_cpus):
        # enumerating C20xC20 at length 2 makes 399 tasks, the last in this
        # thread and 398 on two threads, each of fewer than 2048 nodes, so a
        # stopped Scan does not cut them. Task 0, root 1, is the first that a
        # thread takes, and its walk raises; each thread starts at most one
        # walk after that, the one whose task it had already taken
        import threading
        walks, failure = [], []
        real_scan = compiled_kernel.Scan

        class FailingScan:
            def __init__(self, *args):
                self.scan = real_scan(*args)
                self.stop = self.scan.stop

            def walk(self, root, *args):
                walks.append((threading.current_thread(), bool(failure)))
                if root == 1:
                    failure.append(ZeroDivisionError("task 0"))
                    raise failure[0]
                return self.scan.walk(root, *args)

        monkeypatch.setattr(compiled_kernel, "Scan", FailingScan)
        usable_cpus(2)
        with pytest.raises(ZeroDivisionError, match="task 0") as info:
            enumerate_zero_sumfree(AbelianGroup((20, 20)), 2)
        assert info.value is failure[0]
        assert len(threaded_scans) == 2
        late = [thread for thread, after_failure in walks if after_failure]
        assert all(late.count(thread) <= 1 for thread in threaded_scans), len(late)
        assert len(walks) < 399

    def test_a_thread_that_cannot_start_stops_the_scan(self, threaded_scans, compiled_kernel,
                                                       monkeypatch, usable_cpus):
        # C5xC5: the last root task runs in this thread, then the first thread
        # starts and takes task 0 (root 1, 23,113 nodes), whose walk waits
        # for its Scan to be stopped; the second thread cannot start. The
        # stopped walk ends at its 2048th node, and the scan raises the error
        import threading
        from zerosum.search import run_scan
        real_scan, real_start = compiled_kernel.Scan, threading.Thread.start
        walking, stopped, walked = threading.Event(), threading.Event(), []

        class StoppableScan:
            def __init__(self, *args):
                self.scan = real_scan(*args)

            def stop(self):
                stopped.set()
                self.scan.stop()

            def walk(self, *args):
                if _in_a_thread() and not walking.is_set():
                    walking.set()
                    stopped.wait(10)
                result = self.scan.walk(*args)
                walked.append(result[0])
                return result

        starts = []

        def start(thread):
            starts.append(thread)
            if len(starts) == 2:
                walking.wait(10)
                raise RuntimeError("can't start new thread")
            real_start(thread)

        monkeypatch.setattr(compiled_kernel, "Scan", StoppableScan)
        monkeypatch.setattr(threading.Thread, "start", start)
        c55 = AbelianGroup((5, 5))
        usable_cpus(2)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            run_scan(c55, **extrema_kwargs(c55))
        assert len(starts) == 2 and len(threaded_scans) == 1
        assert walked[1:] == [2048]


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
    def test_reduced_searches_match_every_root(self, factors, threaded_scans, usable_cpus):
        from zerosum.formulas import divisor_pairs
        from zerosum.search import _gamma_scan, run_scan
        group = AbelianGroup(factors)
        deltas = range(davenport_p_group(group)) if group.is_p_group else ()
        # every root, walked once: its results do not depend on the width
        # (TestThreadedScans), so the reduced searches at each width meet it
        accs, _ = run_scan(group, **extrema_kwargs(group))
        d_acc = max(accs, key=lambda acc: acc.best_len)
        k_acc = max(accs, key=lambda acc: acc.best_scaled)
        want = [d_acc.best_len, d_acc.best, Fraction(k_acc.best_scaled, group.exponent),
                k_acc.best_cross]
        for pair in divisor_pairs(group):
            accs, _ = run_scan(group, **extrema_kwargs(group),
                               forbidden_mask=dpair_mask(group, pair))
            if accs:
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
    def test_root_filter_is_level_zero_of_the_cut(self, factors, threaded_scans, monkeypatch,
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
            accs, total = run_scan(group, **extrema_kwargs(group), symmetric=True)
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
        assert cut.mask(cut.ROOT) == aut_orbit_minima(AbelianGroup(factors))

    @pytest.mark.parametrize("factors", SMALL_GROUP_FACTORS, ids=str)
    def test_cut_enters_every_stabiliser_minimum(self, factors):
        """Below an orbit-minimum root m, and below every nondecreasing
        path of length 2 or 3 from it, the state that ``row`` leads to from
        ``ROOT`` enters each rank least in its orbit under the listed
        automorphisms that fix every rank of the path, so it keeps the next
        rank of the least optimiser; on a group of rank two or more it
        acts. Below a path in state 0 every rank is entered."""
        from zerosum.search import _path_cut
        group = AbelianGroup(factors)
        size = group.cardinality
        cut = _path_cut(factors)
        roots = cut.mask(cut.ROOT)
        checked = set()

        def check(path: tuple[int, ...], state: int) -> None:
            if not state:
                return
            checked.add(len(path))
            assert aut_orbit_minima(group, path) & ~cut.mask(state) == 0, path
            if len(path) < 3:
                for h in range(path[-1], size):
                    check(path + (h,), cut.row(state)[h])

        for m in range(1, size):
            if roots >> m & 1:
                check((m,), cut.row(cut.ROOT)[m])
        assert checked == {1, 2, 3} or len(factors) == 1

    def test_threads_meeting_new_states_give_one_id_per_set(self):
        """Threads that follow every row from ``ROOT`` of a fresh cut of
        C2^4xC6 (21 generators, 64 states) at once, released together with
        a 1 us switch interval, give each generator set one id and see the
        same rows. Without the lock, each of six runs of this test gave a
        set two ids."""
        import sys
        import threading
        from zerosum.search import _PathCut
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(100):
                cut = _PathCut((2, 2, 2, 2, 6))
                seen = [{} for _ in range(4)]
                start = threading.Barrier(len(seen), timeout=60)

                def follow(out):
                    start.wait()
                    stack = [cut.ROOT]
                    while stack:
                        state = stack.pop()
                        if state not in out:
                            out[state] = (cut.sets[state], cut.row(state))
                            stack.extend(out[state][1])

                threads = [threading.Thread(target=follow, args=(out,)) for out in seen]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert len(set(cut.sets)) == len(cut.sets) == 64
                assert all(out == seen[0] for out in seen)
        finally:
            sys.setswitchinterval(interval)

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
            assert cut.mask(cut.ROOT) == want, n

    @pytest.mark.parametrize("factors", P_GROUP_FACTORS + NON_P_FACTORS
                             + [(42,), (999,), (1000,), (2, 2, 2, 2, 6)], ids=str)
    def test_automorphisms_match_the_per_rank_map(self, factors):
        # the unit scalings of C999 and C1000 among them, each built from a
        # table of n shifts
        from zerosum.search import _automorphism, _generators
        for generator in _generators(factors):
            assert (_automorphism(factors, generator)
                    == elementary_map_by_coordinates(factors, generator)), generator


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

    def test_checks_never_load_the_compiled_kernel(self):
        # in a fresh interpreter, the definitional subsums and a witness
        # check leave the kernel's loader unimported
        import subprocess
        import sys
        import zerosum
        code = ("import sys\n"
                "from zerosum import AbelianGroup, GSequence\n"
                "from zerosum.sequences import check_witness, definitional_subsums\n"
                "seq = GSequence.from_ranks(AbelianGroup((5, 5)), (1, 1, 1, 1, 5, 5, 5, 5))\n"
                "assert len(definitional_subsums(seq)) == 24\n"
                "check_witness(seq, length=8)\n"
                "print(sorted(m for m in sys.modules if m.startswith('zerosum.')))")
        src = os.path.dirname(os.path.dirname(zerosum.__file__))
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True).stdout
        assert "zerosum._kernel" not in out and "zerosum.search" not in out

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
        assert run_scan(group, **extrema_kwargs(group))[1] == 138_864
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

    def test_forbidden_allowed_elements_are_never_entered(self, python_kernel):
        # the zero element alone, then with the 4 elements of order 4 of C2xC4
        # (ranks 2, 3, 6 and 7), which leaves the walk of G_2 = C2xC2
        from zerosum.search import run_scan
        for forbidden, roots, nodes in ((0b1, 7, 94), (0b11001101, 3, 6)):
            accs, total = run_scan(C24, _LogAcc, forbidden_mask=forbidden)
            assert (len(accs), total) == (roots, nodes)
            assert not any(forbidden >> h & 1 for acc in accs for path in acc.log
                           for h in path)

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
        # forbidden: G_2 (8 elements) and the 448 outside G_4, which leaves
        # the 56 of G_4 minus G_2
        from zerosum.search import run_scan
        group = AbelianGroup((8, 8, 8))
        pair = DivisorPair(2, 4)
        accs, nodes = run_scan(group, **extrema_kwargs(group),
                               forbidden_mask=dpair_mask(group, pair))
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
    """Logs every path entered; ends each branch at length ``stop``."""

    def __init__(self, stop=math.inf):
        self.log, self.stop = [], stop

    def enter(self, node):
        self.log.append(tuple(node[0]))
        return len(node[0]) < self.stop


class _RootExtremaAcc(_ExtremaAcc):
    """``_ExtremaAcc`` that ends every branch at its root."""

    __slots__ = ()

    def enter(self, node):
        super().enter(node)
        return False


class _ExtremaTwin:
    """``_ExtremaAcc`` from scratch: each enter sums the whole path and
    ignores the total it is given."""

    def __init__(self, weights):
        self.weights = weights
        self.best_len, self.best, self.best_scaled, self.best_cross = 0, None, 0, None

    def enter(self, node):
        path = node[0]
        scaled = sum(self.weights[h] for h in path)
        if len(path) > self.best_len:
            self.best_len, self.best = len(path), tuple(path)
        if scaled > self.best_scaled:
            self.best_scaled, self.best_cross = scaled, tuple(path)
        return True


class _MinMaxOrderTwin:
    """``_MinMaxOrderAcc`` from scratch: each enter counts the whole path
    and ignores the total it is given."""

    def __init__(self, is_max, target):
        self.is_max, self.target = is_max, target
        self.best_count, self.best = None, None

    def enter(self, node):
        path = node[0]
        count = sum(self.is_max[h] for h in path)
        if self.best_count is not None and count >= self.best_count:
            return False
        if len(path) == self.target:
            self.best_count, self.best = count, tuple(path)
            return False
        return True


class _ViolationTwin:
    """``_ViolationAcc`` from scratch: each enter sums the whole path and
    ignores the total it is given."""

    def __init__(self, weights, min_length, bound):
        self.weights, self.min_length, self.bound = weights, min_length, bound
        self.counterexample = None

    def enter(self, node):
        path = node[0]
        if self.counterexample is not None:
            return False
        if len(path) >= self.min_length and sum(self.weights[h] for h in path) > self.bound:
            self.counterexample = tuple(path)
            return False
        return True


class _Counted:
    """Wraps an accumulator: counts the nodes its task enters, the enters
    whose total is not the sum of ``weights`` over the whole path, and the
    enters that come right after a pruned node (refused below ``cap``, the
    length at which the accumulator stops) and are shallower than it."""

    def __init__(self, acc, weights, cap):
        self.acc, self.weights, self.cap = acc, weights, cap
        self.nodes, self.wrong_totals, self.pruned_at, self.climbs = 0, 0, 0, 0

    def enter(self, node):
        path, total = node
        self.nodes += 1
        self.wrong_totals += total != sum(self.weights[h] for h in path)
        self.climbs += len(path) < self.pruned_at
        down = self.acc.enter(node)
        self.pruned_at = 0 if down or len(path) >= self.cap else len(path)
        return down


def _acc_state(acc, slots=None):
    """The values of ``acc``'s fields named by ``slots``, by default its
    class's ``__slots__``."""
    return tuple(getattr(acc, name) for name in slots or type(acc).__slots__)


def _scan_summary(scan):
    accs, nodes = scan
    return [_acc_state(acc) for acc in accs], nodes


class TestBlockedMaskKernel:
    """``run_scan`` against ``reference_scan``, the earlier per-index walk
    that sums each path's weights from scratch: the same accumulator state
    per root task and the same total nodes; and the kernel's totals, and
    each accumulator that reads them, against a from-scratch twin."""

    @staticmethod
    def _cases(group):
        """(accumulator factory, weights, the length at which it stops or
        None, factory of its from-scratch twin or None) for each
        accumulator kind."""
        from zerosum.search import _CountAcc, _MinMaxOrderAcc, _ViolationAcc
        orders, exp = _rank_lists(group.invariant_factors)[0], group.exponent
        accs, _ = reference_scan(group, **extrema_kwargs(group))
        d = max(acc.best_len for acc in accs)
        is_max = [1 if o == exp else 0 for o in orders]
        minus_max = [-x for x in is_max]
        cross = [exp // o for o in orders]
        short, gamma_len = min(3, d), max(1, d - 1)
        return [
            (_ExtremaAcc, cross, None, lambda: _ExtremaTwin(cross)),
            (lambda: _CountAcc(short, True), None, short, None),
            # the count cut prunes once a task has found a witness
            (lambda: _MinMaxOrderAcc(gamma_len), is_max, gamma_len,
             lambda: _MinMaxOrderTwin(is_max, gamma_len)),
            # cross number above 1 at length >= 2: a counterexample prunes
            (lambda: _ViolationAcc(2, exp), cross, None,
             lambda: _ViolationTwin(cross, 2, exp)),
            # the max-order check at length d(G): weight -1 per maximal-order
            # rank, so a path's total falls as it grows; no zero-sumfree
            # child survives at length d(G)
            (lambda: _ViolationAcc(d, 1 - exp), minus_max, None,
             lambda: _ViolationTwin(minus_max, d, 1 - exp)),
        ]

    def test_matches_reference_walk(self, threaded_scans, usable_cpus):
        """The scan forbidding every rank outside the reference's
        ``allowed`` alphabet against the reference's accumulators of the
        same roots, less the forbidden ones, which the reference skips."""
        from zerosum.search import _subgroup_mask, run_scan

        def same(group, acc_factory, weights=None, allowed=None, forbidden_mask=1):
            accs, nodes = reference_scan(group, acc_factory, weights=weights, allowed=allowed,
                                         forbidden_mask=forbidden_mask)
            if allowed is None:
                allowed = [r for r in range(group.cardinality)
                           if not (forbidden_mask >> r) & 1]
            want = ([_acc_state(acc) for g, acc in zip(allowed, accs)
                     if not (forbidden_mask >> g) & 1], nodes)
            outside = (1 << group.cardinality) - 1 - sum(1 << r for r in allowed)
            for width in (1, 2):
                usable_cpus(width)
                got = run_scan(group, acc_factory, weights=weights,
                               forbidden_mask=forbidden_mask | outside)
                assert _scan_summary(got) == want, (group, forbidden_mask, width)
            return nodes

        for factors in P_GROUP_FACTORS + NON_P_FACTORS:
            group = AbelianGroup(factors)
            for factory, weights, _, _ in self._cases(group):
                same(group, factory, weights)
        # a d-pair forbidden subgroup, G_2 in C8xC8xC8, with the allowed set
        # G_4 minus G_2 as longest_avoiding takes it, then all of G_4
        group, pair = AbelianGroup((8, 8, 8)), DivisorPair(2, 4)
        forbidden = _subgroup_mask(group, pair.quotient)
        g4 = [r for r, o in enumerate(_rank_lists(group.invariant_factors)[0]) if pair.d % o == 0]
        for allowed in ([r for r in g4 if not (forbidden >> r) & 1], g4):
            assert same(group, **extrema_kwargs(group), allowed=allowed,
                        forbidden_mask=forbidden) == 15_736
        # every rank allowed, the zero element forbidden
        assert same(C24, **extrema_kwargs(C24), allowed=list(range(8))) == 94
        assert threaded_scans or _kernel.load() is None

    def test_d_pair_alphabet_matches_reference(self, threaded_scans, usable_cpus):
        """For every divisor pair of each small group, the scan of the one
        mask that ``longest_avoiding`` passes, G_{d/d'} and every rank
        outside G_d, against the reference walking the alphabet G_d minus
        G_{d/d'} with G_{d/d'} forbidden: the same accumulator state per
        root and the same total nodes at widths 1 and 2. The reference's
        longest path is the length and witness of ``longest_avoiding``."""
        from zerosum.formulas import divisor_pairs
        from zerosum.search import run_scan
        for factors in P_GROUP_FACTORS + NON_P_FACTORS:
            group = AbelianGroup(factors)
            orders = [(e.rank, e.order()) for e in group.elements()]
            for pair in divisor_pairs(group):
                quotient = sum(1 << r for r, o in orders if pair.quotient % o == 0)
                alphabet = [r for r, o in orders if pair.d % o == 0 and pair.quotient % o]
                want = _scan_summary(reference_scan(group, **extrema_kwargs(group),
                                                    allowed=alphabet, forbidden_mask=quotient))
                for width in (1, 2):
                    usable_cpus(width)
                    got = run_scan(group, **extrema_kwargs(group),
                                   forbidden_mask=dpair_mask(group, pair))
                    assert _scan_summary(got) == want, (factors, pair, width)
                length, witness = longest_avoiding(group, pair)
                assert (length, tuple(witness.iter_ranks()) or None) == max(
                    want[0], key=lambda state: state[0], default=(0, None))[:2]
        assert threaded_scans or _kernel.load() is None

    def test_running_sums_match_sums_from_scratch(self, threaded_scans, usable_cpus,
                                                  python_kernel):
        """At every enter the total the kernel passes is the sum of the
        weights over the whole path; and each accumulator that reads it
        gives the results of its twin, which sums the whole path itself,
        with the same nodes per root task: uncut and cut, at widths 1 and
        2. The Gamma and violation cases each prune a node that a shallower
        one follows, and the max-order weights are negative."""
        from zerosum.search import run_scan
        climbs = {}
        for factors in P_GROUP_FACTORS + NON_P_FACTORS:
            group = AbelianGroup(factors)
            for factory, weights, stop, twin in self._cases(group):
                if twin is None:
                    continue
                cap = stop or math.inf
                for symmetric in (False, True):
                    for width in (1, 2):
                        usable_cpus(width)
                        got, want = (run_scan(group, lambda f=f: _Counted(f(), weights, cap),
                                              weights=weights, symmetric=symmetric)
                                     for f in (factory, twin))
                        assert got[1] == want[1]
                        assert not any(c.wrong_totals for c in got[0] + want[0])
                        slots = type(got[0][0].acc).__slots__
                        assert ([(c.nodes, _acc_state(c.acc)) for c in got[0]]
                                == [(t.nodes, _acc_state(t.acc, slots)) for t in want[0]])
                        kind = type(got[0][0].acc).__name__
                        climbs[kind] = climbs.get(kind, 0) + sum(c.climbs for c in got[0])
        assert climbs["_MinMaxOrderAcc"] and climbs["_ViolationAcc"]
        assert not threaded_scans

    def test_root_task_walks_its_reference_subtree(self, threaded_scans, usable_cpus,
                                                   python_kernel):
        """Root g's task enters exactly the reference paths of root g, in
        order; with an accumulator that stops at length 1 it enters (g,)
        alone. The masks that leave only the top rank |G| - 1, or only
        ranks 1 and |G| - 1, as roots test the edge of the roots' listing."""
        from zerosum.search import run_scan
        for group in (C24, AbelianGroup((3, 3)), AbelianGroup((2, 2, 4))):
            ref_accs, _ = reference_scan(group, _LogAcc)
            want = [acc.log for acc in ref_accs]
            for width in (1, 2):
                usable_cpus(width)
                accs, nodes = run_scan(group, _LogAcc)
                assert [acc.log for acc in accs] == want
                assert nodes == sum(map(len, want))
            accs, nodes = run_scan(group, lambda: _LogAcc(stop=1))
            roots = range(1, group.cardinality)
            assert [acc.log for acc in accs] == [[(g,)] for g in roots]
            assert nodes == group.cardinality - 1
        for group in (C24, AbelianGroup((3, 9))):
            top = group.cardinality - 1
            every = (1 << group.cardinality) - 1
            for roots in ([top], [1, top]):
                forbidden = every ^ sum(1 << g for g in roots)
                ref_accs, _ = reference_scan(group, _LogAcc, forbidden_mask=forbidden)
                want = [acc.log for acc in ref_accs]
                assert [log[0] for log in want] == [(g,) for g in roots]
                for width in (1, 2):
                    usable_cpus(width)
                    accs, nodes = run_scan(group, _LogAcc, forbidden_mask=forbidden)
                    assert [acc.log for acc in accs] == want, (group, roots, width)
                    assert nodes == sum(map(len, want))
        assert not threaded_scans

    def test_translates_only_nodes_that_descend(self, monkeypatch, usable_cpus,
                                                python_kernel):
        """One translate per node entered whose ``enter`` returns True, the
        only nodes the kernel descends into: every node of the d/k scan and
        of the verified max-order check, which ends no branch, but not the
        nodes where the Gamma cut or the count's length ends a branch. A
        stop the accumulator lost would make every node descend, and node
        counts alone do not show it."""
        from zerosum import check_corollary_max_order, search
        from zerosum.groups import GroupTables
        calls, descends = [0], [0]
        translate = GroupTables.translate

        def counting_translate(tables, mask, g):
            calls[0] += 1
            return translate(tables, mask, g)

        def counting(enter):
            def counting_enter(acc, node):
                down = enter(acc, node)
                descends[0] += down
                return down
            return counting_enter

        monkeypatch.setattr(GroupTables, "translate", counting_translate)
        for cls in (_ExtremaAcc, search._CountAcc, search._MinMaxOrderAcc,
                    search._ViolationAcc):
            monkeypatch.setattr(cls, "enter", counting(cls.enter))
        totals = scan_nodes(monkeypatch)
        usable_cpus(1)
        c55 = AbelianGroup((5, 5))
        got = []

        def walked(nodes):
            got.append((calls[0], descends[0], nodes))
            calls[0] = descends[0] = 0

        walked(search.run_scan(c55, **extrema_kwargs(c55))[1])
        walked(search._gamma_scan(AbelianGroup((2, 2, 8)), 1, None)[2])
        enumerate_zero_sumfree(c55, 3)
        walked(totals[-1])
        walked(check_corollary_max_order(c55).nodes_visited)
        assert got[0] == got[3] == (138_864, 138_864, 138_864)
        for translates, descended, nodes in got[1:3]:
            assert translates == descended < nodes
        assert got[1:3] == [(422_338, 422_338, 508_814), (312, 312, 2_520)]


def task_nodes(monkeypatch) -> list[int]:
    """The list to which each later root task, on either kernel, appends
    the nodes it returns."""
    from zerosum import search
    nodes = []
    scan_from, compiled = search._scan_from, search._compiled

    def counted_scan_from(*args):
        nodes.append(scan_from(*args))
        return nodes[-1]

    class CountedScan:
        def __init__(self, scan):
            self.scan, self.stop = scan, scan.stop

        def walk(self, *args):
            result = self.scan.walk(*args)
            nodes.append(result[0])
            return result

    def counting_compiled(*args):
        new_scan = compiled(*args)
        return new_scan and (lambda: CountedScan(new_scan()))

    monkeypatch.setattr(search, "_scan_from", counted_scan_from)
    monkeypatch.setattr(search, "_compiled", counting_compiled)
    return nodes


class TestCompiledKernel:
    """The compiled kernel (``_kernel.c``) against the Python one, its
    oracle: the same accumulator state per root task, the same root tasks
    and the same nodes, cut and uncut, at widths 1 and 2, within a budget
    and past it."""

    @staticmethod
    def _accumulators(group):
        """(factory, weights) of each accumulator the compiled kernel runs,
        ``_CountAcc`` with and without its paths, and a violation check
        with no weights, which finds none and walks every node."""
        from zerosum.search import _CountAcc, _ViolationAcc
        return [(lambda: _CountAcc(2, False), None), (lambda: _ViolationAcc(1, 0), None)] + [
            (factory, weights) for factory, weights, _, _ in TestBlockedMaskKernel._cases(group)]

    @pytest.mark.parametrize("factors", P_GROUP_FACTORS + NON_P_FACTORS, ids=str)
    def test_root_tasks_match(self, factors, compiled_kernel, threaded_scans, monkeypatch,
                              usable_cpus):
        from zerosum.search import run_scan
        group = AbelianGroup(factors)
        for factory, weights in self._accumulators(group):
            for symmetric in (False, True):
                for width in (1, 2):
                    usable_cpus(width)
                    python, compiled = (
                        _scan_summary(run_scan(group, factory, weights=weights,
                                               symmetric=symmetric))
                        for _ in each_kernel(monkeypatch))
                    assert compiled == python, (factory(), symmetric, width)
        assert threaded_scans or group.cardinality <= 3  # three roots start threads at width 2

    @pytest.mark.parametrize("factors", P_GROUP_FACTORS + NON_P_FACTORS + [(5, 5)], ids=str)
    def test_task_budgets_match(self, factors, compiled_kernel):
        """Each root task alone, through ``_scan_from`` and the compiled
        walk: at allowances 0, N - 1 and N, N its nodes, and with the
        deadline already past, which stops a task at its 2048th node."""
        from zerosum.groups import tables_for
        from zerosum.search import _compiled, _path_cut, _scan_from
        group = AbelianGroup(factors)
        tables, size, unbounded = tables_for(group), group.cardinality, 10 ** 12
        stopped = 0
        for factory, weights in self._accumulators(group):
            for cut in (None, _path_cut(factors)):
                roots = -1 if cut is None else cut.mask(cut.ROOT)
                for root in (r for r in range(1, size) if roots >> r & 1):
                    def python(allowance, deadline=math.inf):
                        acc = factory()
                        nodes = _scan_from(tables, root, 1, acc, weights or bytes(size),
                                           allowance, deadline, cut)
                        return nodes, _acc_state(acc)

                    def compiled(allowance, seconds=math.inf):
                        acc = factory()
                        new_scan = _compiled(compiled_kernel, tables, acc, 1, weights, cut)
                        result = new_scan().walk(root, allowance, seconds)
                        acc.kernel_result(result)
                        return result[0], _acc_state(acc)

                    full = python(unbounded)[0]
                    for allowance in (0, full - 1, full):
                        assert compiled(allowance) == python(allowance), (root, allowance)
                    past = python(unbounded, -math.inf)
                    assert compiled(unbounded, -math.inf) == past
                    stopped += past[0] == 2048 < full
        assert stopped or size < 25

    @pytest.mark.parametrize("factors, delta, nodes",
                             [((9, 9), 8, 3_510_089), ((8, 8, 8), 12, 2_790_192)], ids=str)
    def test_multiword_masks(self, factors, delta, nodes, compiled_kernel, monkeypatch):
        # 81 and 512 ranks: two and eight 64-bit words per mask
        from zerosum.search import _gamma_scan
        group = AbelianGroup(factors)
        runs = [_gamma_scan(group, delta, None, symmetric=True) for _ in each_kernel(monkeypatch)]
        assert runs[0] == runs[1]
        assert runs[0][2] == nodes

    @pytest.mark.parametrize("factors, nodes", [((2, 2, 2, 2, 6), 102_818), ((2,) * 9, 9)],
                             ids=str)
    def test_many_generators(self, factors, nodes, compiled_kernel, monkeypatch):
        # C2^4xC6 has 21 generators and C2^9 72, more than one 64-bit word holds
        from zerosum.search import _path_cut
        group = AbelianGroup(factors)
        assert len(_path_cut(factors).perms) > 20
        totals = scan_nodes(monkeypatch)
        runs = []
        for _ in each_kernel(monkeypatch):
            d, d_wit, k, k_wit = zero_sumfree_extrema(group)
            runs.append((d, tuple(d_wit.iter_ranks()), k, tuple(k_wit.iter_ranks())))
        assert runs[0] == runs[1]
        assert totals == [nodes, nodes]

    def test_other_accumulators_and_wide_weights_run_on_python(self, compiled_kernel,
                                                              monkeypatch):
        # a subclass of a compiled accumulator, and weights beyond 32 bits
        from zerosum.groups import tables_for
        from zerosum.search import _compiled, run_scan
        tables = tables_for(C24)
        wide = [w << 40 for w in _cross_weights(C24)]
        assert _compiled(compiled_kernel, tables, _RootExtremaAcc(), 1, None, None) is None
        assert _compiled(compiled_kernel, tables, _ExtremaAcc(), 1, wide, None) is None
        runs = [_scan_summary(run_scan(C24, _ExtremaAcc, weights=wide))
                for _ in each_kernel(monkeypatch)]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("factors, max_nodes",
                             [((5, 5), 30_000), ((3, 9), 100_000), ((6, 6), 100_000)],
                             ids=str)
    def test_tasks_enter_the_budget(self, factors, max_nodes, kernel, monkeypatch,
                                    usable_cpus):
        # every root in this process: the tasks' nodes sum to the budget,
        # which they enter, and the one node that stopped the scan
        from zerosum.search import run_scan
        group = AbelianGroup(factors)
        nodes = task_nodes(monkeypatch)
        usable_cpus(1)
        with pytest.raises(BudgetExceededError) as info:
            run_scan(group, **extrema_kwargs(group), budget=SearchBudget(max_nodes=max_nodes))
        assert info.value.nodes_visited == max_nodes + 1
        assert sum(nodes) == max_nodes + 1

    def test_worker_exception_keeps_its_type(self, compiled_kernel, threaded_scans, monkeypatch,
                                             usable_cpus):
        # the cut's first state that the compiled walk fetches on a thread
        # raises there
        from zerosum import search
        real_fetch = search._PathCut.fetch

        def failing(cut, state):
            if _in_a_thread():
                raise ZeroDivisionError("in a thread")
            return real_fetch(cut, state)

        monkeypatch.setattr(search._PathCut, "fetch", failing)
        usable_cpus(2)
        with pytest.raises(ZeroDivisionError, match="in a thread"):
            zero_sumfree_extrema(AbelianGroup((2, 4, 4)))
        assert threaded_scans

    def test_failing_thread_stops_the_others(self, compiled_kernel, threaded_scans,
                                             monkeypatch, usable_cpus):
        # Gamma C4xC4xC8 at delta 3 runs its last task, of one node, here
        # and the four left on two threads; one of them walks 135,322,411
        # nodes, over 4 s on a 2-core Xeon. The first state that a thread
        # fetches raises there; the other walk stops within 2048 nodes, and
        # the scan raises that exception.
        from zerosum import search
        real_fetch = search._PathCut.fetch
        raised = []

        def failing_once(cut, state):
            if _in_a_thread() and not raised:
                raised.append(state)
                raise ZeroDivisionError("in one thread")
            return real_fetch(cut, state)

        monkeypatch.setattr(search._PathCut, "fetch", failing_once)
        usable_cpus(2)
        started = time.monotonic()
        with pytest.raises(ZeroDivisionError, match="in one thread"):
            search._gamma_scan(AbelianGroup((4, 4, 8)), 3, SearchBudget(max_nodes=10 ** 9),
                               symmetric=True)
        assert time.monotonic() - started < 2
        assert raised and len(threaded_scans) == 2


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
