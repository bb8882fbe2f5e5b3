"""Exhaustive desk-scale checkers for the structural results on zero-sumfree
sequences. Each checker enumerates every qualifying sequence (never samples)
and returns a verdict with a counterexample witness on failure.

A counterexample to a *proved* statement additionally raises the
``implementation_bug`` flag: it indicts this package before the mathematics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceededError
from .formulas import d_star, davenport_p_group, gamma_bounds, j0, k_star
from .groups import AbelianGroup, tables_for
from .search import SearchBudget, _gamma_scan, run_scan
from .sequences import GSequence


@dataclass(frozen=True)
class CheckReport:
    name: str
    group: AbelianGroup
    parameters: tuple[tuple[str, int], ...]
    verdict: str  # verified | counterexample | budget-exceeded
    counterexample: GSequence | None
    nodes_visited: int
    elapsed_seconds: float
    implementation_bug: bool = False
    details: tuple[tuple[str, object], ...] = ()

    def detail(self, key: str):
        return dict(self.details).get(key)


class _ViolationAcc:
    """Tracks a per-element weight sum along the walk and records the first
    (lexicographically least) sequence that violates: one of length at least
    ``min_length`` whose weight sum exceeds ``bound``. Every check states its
    claim in that form, so the accumulator holds only data and pickles for
    the search's worker processes.

    Once a violation is recorded the rest of this task's walk is pruned, so
    node counts stay exhaustive exactly when the verdict is 'verified'.
    """

    __slots__ = ("weights", "min_length", "bound", "total", "counterexample")

    def __init__(self, weights: list[int], min_length: int, bound: int):
        self.weights = weights
        self.min_length = min_length
        self.bound = bound
        self.total = 0
        self.counterexample: tuple[int, ...] | None = None

    def enter(self, path):
        self.total += self.weights[path[-1]]
        if self.counterexample is not None:
            return False
        if len(path) >= self.min_length and self.total > self.bound:
            self.counterexample = tuple(path)
            return False
        return True

    def leave(self, path):
        self.total -= self.weights[path[-1]]


def _run_violation_check(group: AbelianGroup, name: str,
                         parameters: tuple[tuple[str, int], ...],
                         weights: list[int], min_length: int, bound: int,
                         budget: SearchBudget | None,
                         implementation_bug_on_failure: bool,
                         max_depth: int | None = None,
                         details: tuple[tuple[str, object], ...] = ()) -> CheckReport:
    start = time.monotonic()
    try:
        accs, nodes = run_scan(group, lambda: _ViolationAcc(weights, min_length, bound),
                               budget=budget, max_depth=max_depth)
    except BudgetExceededError as err:
        return CheckReport(name, group, parameters, "budget-exceeded", None,
                           err.nodes_visited, time.monotonic() - start,
                           details=details)
    elapsed = time.monotonic() - start
    for acc in accs:
        if acc.counterexample is not None:
            seq = GSequence.from_ranks(group, acc.counterexample)
            return CheckReport(name, group, parameters, "counterexample", seq,
                               nodes, elapsed,
                               implementation_bug=implementation_bug_on_failure,
                               details=details)
    return CheckReport(name, group, parameters, "verified", None, nodes,
                       elapsed, details=details)


def _cross_conjecture_proved(group: AbelianGroup) -> bool:
    """Group classes where the cross-number and order-divisibility
    conjectures are theorems: p-groups, cyclic, rank two, and C2+C2+C2n."""
    factors = group.invariant_factors
    if group.is_p_group or group.rank <= 2:
        return True
    return (group.rank == 3 and factors[0] == 2 and factors[1] == 2
            and factors[2] % 2 == 0)


def check_cross_number_conjecture(group: AbelianGroup,
                                  budget: SearchBudget | None = None) -> CheckReport:
    """Every zero-sumfree sequence of length at least d*(G) has cross number
    at most the invariant-factor bound sum (n_i - 1)/n_i."""
    tables = tables_for(group)
    exp = group.exponent
    threshold = d_star(group)
    bound = sum(Fraction(n - 1, n) for n in group.invariant_factors)
    bound_scaled = int(bound * exp)
    weights = [exp // o for o in tables.orders]
    return _run_violation_check(
        group, "cross-number-conjecture", (("threshold", threshold),),
        weights, threshold, bound_scaled,
        budget, _cross_conjecture_proved(group),
        details=(("bound", bound),))


def check_dual_conjecture(group: AbelianGroup,
                          budget: SearchBudget | None = None) -> CheckReport:
    """Every zero-sumfree sequence with cross number at least k*(G) has
    length at most the number sum (nu_i - 1) over the finest decomposition."""
    tables = tables_for(group)
    exp = group.exponent
    kstar_scaled = int(k_star(group) * exp)
    length_bound = sum(nu - 1 for nu in group.primary_decomposition())
    weights = [exp // o for o in tables.orders]
    # length > length_bound and scaled cross number >= kstar_scaled
    return _run_violation_check(
        group, "davenport-dual-conjecture", (("length_bound", length_bound),),
        weights, length_bound + 1, kstar_scaled - 1,
        budget, group.is_p_group,
        details=(("k_star", k_star(group)),))


def check_order_divisibility(group: AbelianGroup, threshold: int,
                             budget: SearchBudget | None = None) -> CheckReport:
    """In every zero-sumfree sequence of length at least the threshold, the
    smallest invariant factor divides the order of each element."""
    tables = tables_for(group)
    n_1 = group.invariant_factors[0]
    weights = [0] + [1 if tables.orders[r] % n_1 != 0 else 0
                     for r in range(1, tables.size)]
    proved = False
    if group.is_p_group and threshold >= davenport_p_group(group) - group.p + 2:
        proved = True
    if _cross_conjecture_proved(group) and threshold >= d_star(group):
        proved = True
    return _run_violation_check(
        group, "order-divisibility", (("threshold", threshold),),
        weights, threshold, 0,
        budget, proved)


def check_heights(group: AbelianGroup,
                  budget: SearchBudget | None = None) -> CheckReport:
    """Every element of a zero-sumfree sequence of length at least
    d(G) - p + 2 in a p-group has height 1."""
    threshold = davenport_p_group(group) - group.p + 2
    tables = tables_for(group)
    weights = [0] * tables.size
    for rank in range(1, tables.size):
        if group.element_of_rank(rank).height() > 1:
            weights[rank] = 1
    return _run_violation_check(
        group, "heights", (("threshold", threshold),),
        weights, threshold, 0,
        budget, True)


def check_corollary_max_order(group: AbelianGroup,
                              budget: SearchBudget | None = None) -> CheckReport:
    """Every zero-sumfree sequence of maximal length d(G) in a p-group
    contains at least exp(G) - 1 elements of maximal order."""
    d_g = davenport_p_group(group)
    tables = tables_for(group)
    exp = group.exponent
    # weight -1 per element of maximal order: a sum above 1 - exp means fewer
    # than exp - 1 such elements; no walk goes deeper than d_g
    weights = [-1 if o == exp else 0 for o in tables.orders]
    return _run_violation_check(
        group, "max-order-at-full-length", (("length", d_g), ("minimum", exp - 1)),
        weights, d_g, 1 - exp,
        budget, True, max_depth=d_g)


def check_gamma_conjecture(group: AbelianGroup, delta: int,
                           budget: SearchBudget | None = None) -> CheckReport:
    """Is the constructive upper bound for the minimal max-order count the
    exact value? Verified iff the exhaustive minimum equals the bound."""
    start = time.monotonic()
    bounds = gamma_bounds(group, delta)
    try:
        exact, ranks, nodes = _gamma_scan(group, delta, budget)
    except BudgetExceededError as err:
        return CheckReport("gamma-conjecture", group, (("delta", delta),),
                           "budget-exceeded", None, err.nodes_visited,
                           time.monotonic() - start)
    elapsed = time.monotonic() - start
    details = (("exact", exact), ("lower", bounds.lower), ("upper", bounds.upper))
    if exact == bounds.upper:
        return CheckReport("gamma-conjecture", group, (("delta", delta),),
                           "verified", None, nodes, elapsed, details=details)
    # proved bound violations point straight at this package
    bug = exact > bounds.upper or exact < bounds.lower
    if not bug:
        proved_regime = (j0(group) == group.rank
                         or (j0(group) == 1 and delta <= group.p - 2))
        bug = proved_regime
    return CheckReport("gamma-conjecture", group, (("delta", delta),),
                       "counterexample", GSequence.from_ranks(group, ranks),
                       nodes, elapsed, implementation_bug=bug, details=details)
