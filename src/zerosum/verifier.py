"""Exhaustive desk-scale checkers for the structural results on zero-sumfree
sequences. Each checker enumerates every qualifying sequence (never samples)
and returns a verdict with a counterexample witness on failure.

A counterexample to a *proved* statement additionally raises the
``implementation_bug`` flag: it indicts this package before the mathematics.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import record
from .errors import BudgetExceededError
from .formulas import d_star, davenport_p_group, gamma_bounds, gamma_broken_rule, k_star
from .groups import AbelianGroup, _exact_ints
from .search import SearchBudget, _cross_weights, _gamma_scan, _rank_lists, run_scan
from .sequences import GSequence


@record(frozen=True)
class CheckReport:
    name: str
    parameters: tuple[tuple[str, int], ...]
    verdict: str  # verified | counterexample | budget-exceeded
    counterexample: GSequence | None
    nodes_visited: int
    implementation_bug: bool = False
    details: tuple[tuple[str, object], ...] = ()

    def detail(self, key: str):
        return dict(self.details).get(key)


class _ViolationAcc:
    """Records the first (lexicographically least) sequence that violates:
    one of length at least ``min_length`` whose total, the sum of its
    check's per-element weights, exceeds ``bound``. Every check states its
    claim in that form, so the accumulator holds only data, which the
    compiled kernel reads and writes. A branch stops at length ``stop``: d(G)
    for the max-order check, else |G|, which no zero-sumfree length reaches.

    Once a violation is recorded the rest of this task's walk is pruned, so
    node counts stay exhaustive exactly when the verdict is 'verified'.
    """

    __slots__ = ("min_length", "bound", "stop", "counterexample")
    kernel_mode = 3  # its MODE_* in the compiled kernel, _kernel.c

    def __init__(self, min_length: int, bound: int, stop: int):
        self.min_length, self.bound, self.stop = min_length, bound, stop
        self.counterexample: tuple[int, ...] | None = None

    def enter(self, node):
        if self.counterexample is not None:
            return False
        path, total = node
        if len(path) >= self.min_length and total > self.bound:
            self.counterexample = tuple(path)
            return False
        return len(path) < self.stop


def _budget_exceeded(name: str, parameters: tuple[tuple[str, int], ...],
                     err: BudgetExceededError,
                     details: tuple[tuple[str, object], ...] = ()) -> CheckReport:
    return CheckReport(name, parameters, "budget-exceeded", None, err.nodes_visited,
                       details=details)


def _run_violation_check(group: AbelianGroup, name: str,
                         parameters: tuple[tuple[str, int], ...],
                         weights: list[int], min_length: int, bound: int,
                         budget: SearchBudget | None,
                         implementation_bug_on_failure: bool,
                         stop: int | None = None,
                         details: tuple[tuple[str, object], ...] = ()) -> CheckReport:
    try:
        accs, nodes = run_scan(group, lambda: _ViolationAcc(min_length, bound,
                                                            stop or group.cardinality),
                               weights=weights, budget=budget)
    except BudgetExceededError as err:
        return _budget_exceeded(name, parameters, err, details)
    for acc in accs:
        if acc.counterexample is not None:
            seq = GSequence.from_ranks(group, acc.counterexample)
            return CheckReport(name, parameters, "counterexample", seq, nodes,
                               implementation_bug=implementation_bug_on_failure,
                               details=details)
    return CheckReport(name, parameters, "verified", None, nodes, details=details)


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
    exp = group.exponent
    threshold = d_star(group)
    bound = sum(Fraction(n - 1, n) for n in group.invariant_factors)
    bound_scaled = int(bound * exp)
    return _run_violation_check(
        group, "cross-number-conjecture", (("threshold", threshold),),
        _cross_weights(group), threshold, bound_scaled,
        budget, _cross_conjecture_proved(group),
        details=(("bound", bound),))


def check_dual_conjecture(group: AbelianGroup,
                          budget: SearchBudget | None = None) -> CheckReport:
    """Every zero-sumfree sequence with cross number at least k*(G) has
    length at most the number sum (nu_i - 1) over the finest decomposition."""
    exp = group.exponent
    kstar_scaled = int(k_star(group) * exp)
    length_bound = sum(nu - 1 for nu in group.primary_decomposition())
    # length > length_bound and scaled cross number >= kstar_scaled
    return _run_violation_check(
        group, "davenport-dual-conjecture", (("length_bound", length_bound),),
        _cross_weights(group), length_bound + 1, kstar_scaled - 1,
        budget, group.is_p_group,
        details=(("k_star", k_star(group)),))


def check_order_divisibility(group: AbelianGroup, threshold: int | None = None,
                             budget: SearchBudget | None = None) -> CheckReport:
    """In every zero-sumfree sequence of length at least the threshold, the
    smallest invariant factor divides the order of each element. The
    threshold defaults to d(G) - p + 2 on p-groups and d*(G) otherwise."""
    if threshold is None:
        threshold = (davenport_p_group(group) - group.p + 2
                     if group.is_p_group else d_star(group))
    _exact_ints((threshold,), "threshold", ValueError)
    n_1 = group.invariant_factors[0]
    orders = _rank_lists(group.invariant_factors)[0]
    weights = [0] + [1 if o % n_1 != 0 else 0 for o in orders[1:]]
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
    weights = [0] * group.cardinality
    for rank in range(1, group.cardinality):
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
    exp = group.exponent
    # weight -1 per element of maximal order: a sum above 1 - exp means fewer
    # than exp - 1 such elements; every branch stops at length d_g
    weights = [-1 if o == exp else 0 for o in _rank_lists(group.invariant_factors)[0]]
    return _run_violation_check(
        group, "max-order-at-full-length", (("length", d_g), ("minimum", exp - 1)),
        weights, d_g, 1 - exp,
        budget, True, stop=d_g)


def check_gamma_conjecture(group: AbelianGroup, delta: int,
                           budget: SearchBudget | None = None) -> CheckReport:
    """Is the constructive upper bound for the minimal max-order count the
    exact value? Verified iff the exhaustive minimum equals the bound."""
    bounds = gamma_bounds(group, delta)
    try:
        exact, ranks, nodes = _gamma_scan(group, delta, budget)
    except BudgetExceededError as err:
        return _budget_exceeded("gamma-conjecture", (("delta", delta),), err)
    details = (("exact", exact), ("lower", bounds.lower), ("upper", bounds.upper))
    if exact == bounds.upper:
        return CheckReport("gamma-conjecture", (("delta", delta),), "verified", None,
                           nodes, details=details)
    # a value that breaks a proved rule points straight at this package
    return CheckReport("gamma-conjecture", (("delta", delta),), "counterexample",
                       GSequence.from_ranks(group, ranks), nodes,
                       implementation_bug=gamma_broken_rule(group, bounds, exact) is not None,
                       details=details)

