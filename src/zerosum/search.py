"""Pruned exhaustive search over sequences in a group.

The engine walks canonical (rank-nondecreasing) multisets of allowed
elements depth-first, maintaining the incremental subsum bitmask and cutting
any branch whose subsums touch a forbidden set (the zero element, or a whole
subgroup for the two-level Davenport constant). Every invariant computed
here is exact; budget exhaustion is an error, never an estimate.

The walk is split on the first element's rank, one root task per starting
rank, each with its own accumulator and node budget. A scan runs its
smallest root tasks in-process first; once those have entered more than
``_FORK_GATE_NODES`` nodes, the rest go to forked worker processes (where
``os.fork`` exists), as many as the parallel width, the usable CPUs and the
tasks left allow. Results merge by root index with a lexicographic
tie-break, so values, witnesses and node counts do not depend on the
parallel width or on the schedule.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .errors import BudgetExceededError, InternalCheckError, NeedsOracleError
from .formulas import DivisorPair, davenport_closed_form, davenport_p_group, reduced_group
from .groups import AbelianGroup, GroupTables, tables_for
from .sequences import (GSequence, cross_number, definitional_subsums,
                        max_order_count, subsums)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class SearchBudget:
    """Limits for one search call.

    ``max_nodes`` bounds the states each search task may enter (one task per
    first-element rank), ``max_seconds`` bounds the wall clock of the whole
    call, and ``parallel_width`` caps the worker processes a large scan forks
    (default: the usable CPUs; it never forks more than those).
    """

    max_nodes: int = 100_000_000
    max_seconds: float = 300.0
    parallel_width: int = field(default_factory=_usable_cpus)

    def __post_init__(self):
        # written as "not > 0" so that NaN, which compares false, is rejected
        if (self.max_nodes < 1 or not self.max_seconds > 0
                or self.parallel_width < 1):
            raise ValueError("budget fields must be positive numbers")


DEFAULT_BUDGET = SearchBudget()


@dataclass(frozen=True)
class Witness:
    """A sequence certifying a claimed invariant value.

    ``params`` carries the claim's parameters (delta, divisor pair) as
    sorted key/value pairs so the witness can be re-checked in isolation.
    """

    group: AbelianGroup
    sequence: GSequence
    kind: str  # longest-zero-sumfree | max-cross | gamma | d-pair
    value: int | Fraction
    params: tuple[tuple[str, int], ...] = ()

    def param(self, key: str) -> int:
        return dict(self.params)[key]

    def reverify(self) -> None:
        """Re-check the witness from scratch; raises InternalCheckError.

        Uses a fresh subsum table, plus the definitional all-subsets
        enumeration whenever the sequence is short enough for it.
        """
        seq = self.sequence
        if seq.group != self.group:
            raise InternalCheckError("witness sequence belongs to another group")
        table = subsums(seq)
        if len(seq) <= 12 and set(table.marked_ranks()) != definitional_subsums(seq):
            raise InternalCheckError("incremental and definitional subsums disagree")
        if self.kind == "d-pair":
            pair = DivisorPair(self.param("d_prime"), self.param("d"))
            q_mask = _subgroup_mask(tables_for(self.group), pair.quotient)
            orders = tables_for(self.group).orders
            if any(pair.d % orders[r] != 0 for r, _ in seq.entries):
                raise InternalCheckError("witness element order does not divide d")
            if table.mask & q_mask:
                raise InternalCheckError("witness has a subsum in the forbidden subgroup")
            if len(seq) != self.value - 1:
                raise InternalCheckError("witness length does not match claimed value")
            return
        if table.contains_zero:
            raise InternalCheckError("witness is not zero-sumfree")
        if self.kind == "longest-zero-sumfree":
            if len(seq) != self.value:
                raise InternalCheckError("witness length does not match claimed value")
        elif self.kind == "max-cross":
            if cross_number(seq) != self.value:
                raise InternalCheckError("witness cross number does not match claimed value")
        elif self.kind == "gamma":
            if max_order_count(seq) != self.value:
                raise InternalCheckError("witness max-order count does not match claimed value")
        else:
            raise InternalCheckError(f"unknown witness kind {self.kind!r}")


# -- engine -----------------------------------------------------------------

class _Tracker:
    __slots__ = ("max_nodes", "started", "deadline", "nodes")

    def __init__(self, max_nodes: int, started: float, deadline: float):
        self.max_nodes = max_nodes
        self.started = started
        self.deadline = deadline
        self.nodes = 0


def _scan_from(tables: GroupTables, allowed: list[int], pre: list[int],
               max_depth: int, acc, tracker: _Tracker, root_index: int) -> None:
    """DFS over canonical sequences whose first element is allowed[root_index].

    ``acc.enter(path)`` is called once per state entered (path in
    nondecreasing rank order, last element freshly added) and returns whether
    to descend; ``acc.leave(path)`` is called on the way back, symmetric to a
    True-returning enter as well as to a pruned one.

    ``pre[i]`` is the mask of the ranks x with x + allowed[i] forbidden, or
    -1 when allowed[i] is itself forbidden. Every stacked mask is disjoint
    from the forbidden set, so a child ``mask | (mask + h) | {h}`` touches
    it exactly when ``mask`` meets ``pre[idx]``; only surviving children are
    translated.
    """
    translate = tables.translate
    n_allowed = len(allowed)
    max_nodes = tracker.max_nodes
    deadline = tracker.deadline
    nodes = tracker.nodes

    if pre[root_index] == -1:
        return
    g = allowed[root_index]
    root_mask = 1 << g
    nodes += 1
    tracker.nodes = nodes
    path = [g]
    if not (acc.enter(path) and 1 < max_depth):
        acc.leave(path)
        return
    # parallel stacks: subsum mask at the node, next extension index to try
    stack_mask = [root_mask]
    stack_idx = [root_index]
    try:
        while stack_mask:
            idx = stack_idx[-1]
            if idx >= n_allowed:
                stack_mask.pop()
                stack_idx.pop()
                acc.leave(path)
                path.pop()
                continue
            stack_idx[-1] = idx + 1
            mask = stack_mask[-1]
            if mask & pre[idx]:
                continue
            h = allowed[idx]
            new_mask = mask | translate(mask, h) | (1 << h)
            nodes += 1
            if nodes > max_nodes:
                raise BudgetExceededError(
                    f"node budget {max_nodes} exhausted", nodes_visited=nodes,
                    elapsed_seconds=time.monotonic() - tracker.started)
            if not nodes & 2047 and time.monotonic() > deadline:
                raise BudgetExceededError(
                    "time budget exhausted", nodes_visited=nodes,
                    elapsed_seconds=time.monotonic() - tracker.started)
            path.append(h)
            if acc.enter(path) and len(path) < max_depth:
                stack_mask.append(new_mask)
                stack_idx.append(idx)
            else:
                acc.leave(path)
                path.pop()
    finally:
        tracker.nodes = nodes


# A scan forks only after its in-process root tasks, the smallest ones, have
# entered this many nodes. Forking, feeding and reaping two workers costs
# about 6 ms on a 2-core Xeon, 1-2k nodes of DFS at 150-350k nodes/s, so by
# then the tasks left are worth far more than the fork.
_FORK_GATE_NODES = 20_000
# Root indices queued in the task pipe at once: 4 bytes each, so every write
# is at most 512 bytes (POSIX PIPE_BUF) and the pipe never fills.
_TASK_WINDOW = 128


def _worker_count(parallel_width: int, tasks: int) -> int:
    """Worker processes to fork for ``tasks`` root tasks: never more than the
    width, the usable CPUs or the tasks; 1 (in-process) without ``os.fork``."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(parallel_width, _usable_cpus(), tasks))


def run_scan(group: AbelianGroup, acc_factory: Callable[[], object], *,
             budget: SearchBudget | None = None,
             allowed: list[int] | None = None,
             forbidden_mask: int = 1,
             max_depth: int | None = None) -> tuple[list, int]:
    """Run one accumulator per first-element rank; return (accs, total nodes).

    All accumulators are made here, in this process, and come back ordered
    by their starting rank whatever the width and the schedule, so merging
    them is deterministic. Root tasks run from the last index down
    in-process until the scan has entered more than ``_FORK_GATE_NODES``
    nodes and at least two workers can take the rest (``_worker_count``);
    those remaining, larger tasks then run in forked workers
    (``_run_forked``), whose accumulator state is copied back into these
    accumulators.
    """
    budget = budget or DEFAULT_BUDGET
    tables = tables_for(group)
    if allowed is None:
        allowed = [r for r in range(tables.size) if not (forbidden_mask >> r) & 1]
    depth_cap = max_depth if max_depth is not None else tables.size * group.exponent

    started = time.monotonic()
    deadline = started + budget.max_seconds
    forbidden = [r for r in range(tables.size) if (forbidden_mask >> r) & 1]
    pre = [-1 if (forbidden_mask >> h) & 1 else
           tables.mask_of(tables.add(f, tables.neg[h]) for f in forbidden)
           for h in allowed]
    accs = [acc_factory() for _ in allowed]

    def run_one(root_index: int) -> int:
        tracker = _Tracker(budget.max_nodes, started, deadline)
        _scan_from(tables, allowed, pre, depth_cap, accs[root_index], tracker,
                   root_index)
        return tracker.nodes

    workers = _worker_count(budget.parallel_width, len(allowed))
    left = len(allowed)
    nodes = 0
    while left and (nodes <= _FORK_GATE_NODES or min(workers, left) < 2):
        left -= 1
        nodes += run_one(left)
    if left:
        nodes += _run_forked(min(workers, left), left, run_one, accs)
    return accs, nodes


def _run_forked(workers: int, tasks: int, run_one: Callable[[int], int],
                accs: list) -> int:
    """Run root tasks ``0 .. tasks-1`` in ``workers`` forked children; return
    their nodes.

    The children take root indices in ascending order, largest subtrees
    first, from one shared pipe (see ``_work``). The parent drains every
    result pipe as it fills, copies each returned accumulator's state into
    its own, re-raises the first worker exception and reaps every child. A
    root task that no child reported is an error, never a partial result.
    """
    # imported here so that scans too small to fork do not pay for them
    import pickle
    import selectors
    import signal

    task_r, task_w = os.pipe()
    queued = 0

    def queue(count: int) -> None:
        # the pipe never holds more than _TASK_WINDOW indices, so this never blocks
        nonlocal queued, task_w
        stop = min(tasks, queued + count)
        os.write(task_w, b"".join(i.to_bytes(4, "little") for i in range(queued, stop)))
        queued = stop
        if queued == tasks:
            os.close(task_w)
            task_w = -1

    children: dict[int, int] = {}   # result pipe -> pid
    reported: set[int] = set()
    nodes = 0
    try:
        queue(_TASK_WINDOW)
        for _ in range(workers):
            res_r, res_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _work(task_r, res_w, run_one, accs, close=(res_r, task_w))
            os.close(res_w)
            children[res_r] = pid
        with selectors.DefaultSelector() as sel:
            for fd in children:
                sel.register(fd, selectors.EVENT_READ, bytearray())
            while sel.get_map():
                for key, _ in sel.select():
                    chunk = os.read(key.fd, 1 << 16)
                    if not chunk:
                        sel.unregister(key.fd)
                        continue
                    buf = key.data
                    buf += chunk
                    while len(buf) >= 8:
                        end = 8 + int.from_bytes(buf[:8], "little")
                        if len(buf) < end:
                            break
                        index, result = pickle.loads(buf[8:end])
                        del buf[:end]
                        if isinstance(result, BaseException):
                            raise result
                        acc, task_nodes = result
                        _copy_state(accs[index], acc)
                        nodes += task_nodes
                        reported.add(index)
                        if task_w != -1:
                            queue(1)
        if len(reported) < tasks:
            missing = min(set(range(tasks)) - reported)
            raise InternalCheckError(
                f"a search worker process exited without reporting root task {missing}")
    finally:
        for fd in (task_r, task_w):
            if fd != -1:
                os.close(fd)
        for fd, pid in children.items():
            if len(reported) < tasks:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            os.waitpid(pid, 0)
            os.close(fd)
    return nodes


def _work(task_r: int, res_w: int, run_one: Callable[[int], int], accs: list,
          close: tuple[int, int]) -> None:
    """Body of a forked worker; leaves only through ``os._exit``.

    Reads 4-byte root indices from ``task_r`` until end of file and writes,
    length-prefixed and pickled, ``(index, (acc, nodes))`` per task or
    ``(index, exception)``, after which it stops. It only computes and
    writes to its pipe, so it needs no lock another thread could have held
    at the fork, and ``os._exit`` keeps it from flushing the parent's stdio
    buffers or running its exit handlers. ``close`` holds the parent's pipe
    ends the worker must not keep open (-1 for one already closed).
    """
    status = 1
    try:
        import pickle
        for fd in close:
            if fd != -1:
                os.close(fd)
        while len(raw := os.read(task_r, 4)) == 4:
            index = int.from_bytes(raw, "little")
            try:
                task_nodes = run_one(index)
                result = (accs[index], task_nodes)
            except BaseException as err:  # sent on; the parent re-raises it
                result = err
            payload = pickle.dumps((index, result), pickle.HIGHEST_PROTOCOL)
            view = memoryview(len(payload).to_bytes(8, "little") + payload)
            while view:
                view = view[os.write(res_w, view):]
            if isinstance(result, BaseException):
                break
        status = 0
    finally:
        os._exit(status)


def _copy_state(dst, src) -> None:
    """Give ``dst`` every attribute value of ``src``, an object of its class."""
    for cls in type(src).__mro__:
        for name in getattr(cls, "__slots__", ()):
            setattr(dst, name, getattr(src, name))
    if hasattr(src, "__dict__"):
        vars(dst).update(vars(src))


def _subgroup_mask(tables: GroupTables, d: int) -> int:
    """Bitmask of the ranks whose order divides d."""
    return tables.mask_of(r for r in range(tables.size) if d % tables.orders[r] == 0)


# -- accumulators -------------------------------------------------------------

class _CountAcc:
    """Counts sequences at one exact depth, keeping them if ``keep``."""

    __slots__ = ("target", "count", "hits")

    def __init__(self, target: int, keep: bool):
        self.target = target
        self.count = 0
        self.hits: list[tuple[int, ...]] | None = [] if keep else None

    def enter(self, path):
        if len(path) == self.target:
            self.count += 1
            if self.hits is not None:
                self.hits.append(tuple(path))
        return True

    def leave(self, path):
        pass


class _LongestAcc:
    __slots__ = ("best_len", "best")

    def __init__(self):
        self.best_len = 0
        self.best: tuple[int, ...] | None = None

    def enter(self, path):
        if len(path) > self.best_len:
            self.best_len = len(path)
            self.best = tuple(path)
        return True

    def leave(self, path):
        pass


class _MaxCrossAcc:
    __slots__ = ("orders", "exp", "stack", "best_scaled", "best")

    def __init__(self, orders, exp):
        self.orders = orders
        self.exp = exp
        self.stack = [0]
        self.best_scaled = 0
        self.best: tuple[int, ...] | None = None

    def enter(self, path):
        scaled = self.stack[-1] + self.exp // self.orders[path[-1]]
        self.stack.append(scaled)
        if scaled > self.best_scaled:
            self.best_scaled = scaled
            self.best = tuple(path)
        return True

    def leave(self, path):
        self.stack.pop()


class _MinMaxOrderAcc:
    """Minimal max-order count over sequences of one exact length.

    The count only grows along a branch, so once a witness exists any branch
    whose running count reaches it can be cut without affecting the minimum
    or the lexicographically least minimizer.
    """

    __slots__ = ("is_max", "target", "count", "best_count", "best")

    def __init__(self, is_max, target):
        self.is_max = is_max
        self.target = target
        self.count = 0
        self.best_count: int | None = None
        self.best: tuple[int, ...] | None = None

    def enter(self, path):
        c = self.count + self.is_max[path[-1]]
        self.count = c
        if self.best_count is not None and c >= self.best_count:
            return False
        if len(path) == self.target:
            self.best_count = c
            self.best = tuple(path)
            return False
        return True

    def leave(self, path):
        self.count -= self.is_max[path[-1]]


# -- public operations -------------------------------------------------------

def enumerate_zero_sumfree(group: AbelianGroup, exact_length: int,
                           visitor: Callable[[GSequence], None] | None = None,
                           *, budget: SearchBudget | None = None) -> int:
    """Visit every canonical zero-sumfree multiset of the exact length once.

    Returns the visit count. The visits come after the search, in
    lexicographic order of the rank tuples at every parallel width.
    """
    if exact_length < 0:
        raise ValueError("length must be nonnegative")
    if exact_length == 0:
        if visitor is not None:
            visitor(GSequence.empty(group))
        return 1
    keep = visitor is not None
    accs, _ = run_scan(group, lambda: _CountAcc(exact_length, keep),
                       budget=budget, max_depth=exact_length)
    if keep:
        for acc in accs:
            for path in acc.hits:
                visitor(GSequence.from_ranks(group, path))
    return sum(acc.count for acc in accs)


def longest_zero_sumfree(group: AbelianGroup,
                         budget: SearchBudget | None = None) -> tuple[int, Witness]:
    """Exact d(G) with the lexicographically least maximizing sequence."""
    accs, _ = run_scan(group, _LongestAcc, budget=budget)
    best_len = max(acc.best_len for acc in accs)
    ranks = next(acc.best for acc in accs if acc.best_len == best_len)
    seq = GSequence.from_ranks(group, ranks)
    return best_len, Witness(group, seq, "longest-zero-sumfree", best_len)


def max_cross_number(group: AbelianGroup,
                     budget: SearchBudget | None = None) -> tuple[Fraction, Witness]:
    """Exact k(G) over all zero-sumfree sequences, with a witness."""
    tables = tables_for(group)
    exp = group.exponent
    accs, _ = run_scan(group, lambda: _MaxCrossAcc(tables.orders, exp), budget=budget)
    best_scaled = max(acc.best_scaled for acc in accs)
    ranks = next(acc.best for acc in accs if acc.best_scaled == best_scaled)
    value = Fraction(best_scaled, exp)
    seq = GSequence.from_ranks(group, ranks)
    return value, Witness(group, seq, "max-cross", value)


def longest_avoiding(group: AbelianGroup, pair: DivisorPair,
                     budget: SearchBudget | None = None) -> tuple[int, Witness]:
    """Longest sequence over G_d with no nonempty subsum in G_{d/d'}."""
    pair.validate_for(group)
    tables = tables_for(group)
    forbidden = _subgroup_mask(tables, pair.quotient)
    allowed = [r for r in range(tables.size)
               if pair.d % tables.orders[r] == 0 and not (forbidden >> r) & 1]
    params = (("d", pair.d), ("d_prime", pair.d_prime))
    if not allowed:
        seq = GSequence.empty(group)
        return 0, Witness(group, seq, "d-pair", 1, params)
    accs, _ = run_scan(group, _LongestAcc, budget=budget,
                       allowed=allowed, forbidden_mask=forbidden)
    best_len = max(acc.best_len for acc in accs)
    if best_len == 0:
        seq = GSequence.empty(group)
    else:
        ranks = next(acc.best for acc in accs if acc.best_len == best_len)
        seq = GSequence.from_ranks(group, ranks)
    return best_len, Witness(group, seq, "d-pair", best_len + 1, params)


def d_pair_bruteforce(group: AbelianGroup, pair: DivisorPair,
                      budget: SearchBudget | None = None) -> int:
    """Exact two-level Davenport constant by enumeration inside G_d."""
    best_len, _ = longest_avoiding(group, pair, budget)
    return best_len + 1


def _gamma_scan(group: AbelianGroup, delta: int,
                budget: SearchBudget | None) -> tuple[int, tuple[int, ...], int]:
    """Shared core of the gamma search: (minimum, witness ranks, nodes)."""
    d_g = davenport_p_group(group)
    if not 0 <= delta <= d_g - 1:
        raise ValueError(f"delta={delta} outside [0, {d_g - 1}] for {group}")
    target = d_g - delta
    tables = tables_for(group)
    exp = group.exponent
    is_max = [1 if o == exp else 0 for o in tables.orders]
    accs, nodes = run_scan(group, lambda: _MinMaxOrderAcc(is_max, target),
                           budget=budget, max_depth=target)
    found = [acc for acc in accs if acc.best_count is not None]
    if not found:
        raise InternalCheckError(
            f"no zero-sumfree sequence of length {target} in {group}")
    best = min(acc.best_count for acc in found)
    ranks = next(acc.best for acc in found if acc.best_count == best)
    return best, ranks, nodes


def gamma_exact(group: AbelianGroup, delta: int,
                budget: SearchBudget | None = None) -> tuple[int, Witness]:
    """Minimal number of maximal-order elements over zero-sumfree sequences
    of length d(G) - delta, with the lexicographically least minimizer.

    Deleting elements preserves zero-sumfreeness and never increases the
    max-order count, so the minimum over lengths >= d(G) - delta is attained
    at that exact length; only it is searched.
    """
    best, ranks, _ = _gamma_scan(group, delta, budget)
    seq = GSequence.from_ranks(group, ranks)
    return best, Witness(group, seq, "gamma", best, (("delta", delta),))


# -- hybrid closed-form / oracle helpers ---------------------------------------

def davenport_constant(group: AbelianGroup,
                       budget: SearchBudget | None = None) -> int:
    """D(G): closed form where known, exhaustive search otherwise."""
    try:
        return davenport_closed_form(group)
    except NeedsOracleError:
        return longest_zero_sumfree(group, budget)[0] + 1


def d_pair_value(group: AbelianGroup, pair: DivisorPair,
                 budget: SearchBudget | None = None) -> int:
    """Two-level Davenport constant via the reduced-group identity.

    The reduction itself is closed-form; the reduced group's Davenport
    constant falls back to search when it has no closed form. Independent of
    (and cross-checked against) :func:`d_pair_bruteforce`, which never leaves
    the ambient group.
    """
    reduced = reduced_group(group, pair)
    if reduced is None:
        return 1
    return davenport_constant(reduced, budget)
