"""Pruned exhaustive search over sequences in a group.

The engine walks canonical (rank-nondecreasing) multisets depth-first.
Every node carries the bitmask of the ranks it may not append: those in a
forbidden set (the zero element, or for the two-level Davenport constant
G_{d/d'} and every rank outside G_d) or making a subsum in it. So only the
children that survive are generated. Every invariant computed here is
exact; budget exhaustion is an error, never an estimate.

A scan makes one task, with its own accumulator, per root: a first
element, whose task walks every multiset that has it as least rank.
d(G), k(G), Gamma and D_(d',d) are Aut(G)-invariant, so their searches
cut every level by canonical augmentation (B. D. McKay, J. Algorithms
1998). If S* = (s_1 <= ... <= s_L) is the lexicographically least
optimiser and an automorphism fixes s_1, ..., s_(j-1), it maps S* to an
optimiser whose sorted form is not smaller, so it does not lower s_j. So
a level enters only the ranks least in their class under the checked
elementary automorphisms that fix every rank of its path: at the root,
with the empty path, under all of them. ``_PathCut`` alone knows those
generators; to the kernels a path has a state, which names its class
mask and steps to the next state by one table lookup per rank appended.
Values and witnesses are those of the full walk, and only node counts
fall. ``check`` and ``enumerate`` take every root and no cut.
A task runs on one of two kernels that walk the same nodes in the same
order: ``_scan_from`` in Python, or its compiled twin in ``_kernel.c``
(built once per source by ``_kernel.load``, which only ``run_scan``
calls) when the first accumulator's own class defines ``kernel_rule``,
as the four below do. The Python kernel is the fallback and the
differential oracle of the compiled one, and runs every task in the
calling thread. The compiled one runs its smallest tasks there first;
once those have entered more than ``_THREAD_GATE_NODES``, the rest go to
threads, one per usable CPU up to one per task left, none pinned to a
CPU, as the compiled walk releases the GIL. Results merge by root with
a lexicographic tie-break, so values, witnesses, node counts and budget
verdicts do not depend on the kernel, the thread count or the schedule.
"""

from __future__ import annotations

import _thread
import math
import os
import time
from array import array
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable

from . import _kernel
from ._budget import DEFAULT_BUDGET, SearchBudget
from .errors import BudgetExceededError, InternalCheckError, NeedsOracleError
from .formulas import (DivisorPair, _check_delta, davenport_closed_form,
                       davenport_p_group, reduced_group)
from .groups import AbelianGroup, GroupTables, _exact_ints, tables_for
from .sequences import GSequence


# -- engine -----------------------------------------------------------------

@lru_cache(maxsize=None)
def _rank_lists(factors: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """(orders, neg): the order of every rank and the rank of its negative.

    Built one invariant factor n at a time: with stride the product of the
    factors before n, rank r + stride*a has the coordinates of r followed by a.
    """
    orders, neg, stride = [1], [0], 1
    for n in factors:
        residue_orders = [n // math.gcd(a, n) for a in range(n)]
        residue_negs = [stride * (-a % n) for a in range(n)]
        orders = [math.lcm(o, q) for q in residue_orders for o in orders]
        neg = [r + t for t in residue_negs for r in neg]
        stride *= n
    return orders, neg


def _cross_weights(group: AbelianGroup) -> list[int]:
    """exp(G) // ord(g) at every rank g: a sequence's cross number, scaled
    by exp(G), is the sum of its elements' weights."""
    exp = group.exponent
    return [exp // o for o in _rank_lists(group.invariant_factors)[0]]


def _generators(factors: tuple[int, ...]):
    """Elementary automorphisms of the group (Hillar and Rhea, Amer. Math.
    Monthly 2007), each (k, a, i, b): coordinate k of x becomes
    a*x_k + b*x_i. They are the unit scalings e_k -> a e_k, for a in a
    generating set of (Z/n_k)^* (each unit, ascending, that the units taken
    before it do not generate), and the transvections
    e_i -> e_i + (n_k / gcd(n_i, n_k)) e_k for i != k."""
    for k, n in enumerate(factors):
        generated = {1}
        for a in range(2, n):
            if a not in generated and math.gcd(a, n) == 1:
                yield k, a, k, 0
                new = generated
                while new := {x * a % n for x in new} - generated:
                    generated |= new
        yield from ((k, 1, i, n // math.gcd(m, n)) for i, m in enumerate(factors) if i != k)


def _automorphism(factors: tuple[int, ...], generator: tuple[int, int, int, int]) -> list[int]:
    """The rank permutation of ``generator`` (k, a, i, b); InternalCheckError
    unless the map is well defined (n_i * b = 0 mod n_k) and bijective, so
    an automorphism."""
    k, a, i, b = generator
    n, m = factors[k], factors[i]
    if m * b % n:
        raise InternalCheckError(f"{generator} is not well defined on {factors}")
    if i == k:  # a unit scaling: x_k becomes (a + b)x_k, n shifts, not n^2
        a, b, m = a + b, 0, 1
    # a rank's shift is shift[x*m + y], x and y its coordinates k and i (y = 0
    # where i == k); index[r] is x*m + y, built one factor at a time as the
    # rank lists are
    weights = {i: 1, k: m}
    stride = math.prod(factors[:k])
    shift = [((a * x + b * y) % n - x) * stride for x in range(n) for y in range(m)]
    index = [0]
    for j, n_j in enumerate(factors):
        weight = weights.get(j, 0)
        index = [t + weight * c for c in range(n_j) for t in index] if weight else index * n_j
    perm = [r + shift[t] for r, t in enumerate(index)]
    if len(set(perm)) != len(perm):
        raise InternalCheckError(f"{generator} is not a bijection of {factors}")
    return perm


class _PathCut:
    """The cut below the root for one group, from the checked ``_generators``,
    as a state machine. A state stands for one set of generators, a path's
    for those that fix every rank of it: ``ROOT`` for all of them (0 when
    there are none), state 0 for none, where every candidate is entered.
    ``row(s)[h]`` is the state of a path in state s after rank h, and
    ``mask(s)`` the mask of the least rank of each class under the
    generators of s; ``mask(ROOT)`` names the roots. Each generator is an
    automorphism, so each class lies in one Aut(G) orbit and the least rank
    of every orbit is kept. Rows and masks are built on first use; ids are
    given under one lock, as two threads' walks can meet a new set at once.
    """

    __slots__ = ("perms", "fixes", "sets", "ROOT", "_ids", "_rows", "_masks", "_lock")

    def __init__(self, factors: tuple[int, ...]):
        self.perms = [_automorphism(factors, gen) for gen in _generators(factors)]
        # fixes[h]: the bitmask of the generators that fix rank h
        self.fixes = [0] * math.prod(factors)
        for bit, perm in enumerate(self.perms):
            for r in [r for r, y in enumerate(perm) if r == y]:
                self.fixes[r] |= 1 << bit
        self.sets, self._ids, self._rows, self._masks = [], {}, {}, {}
        self._lock = _thread.allocate_lock()
        self._state(0)
        self.ROOT = self._state((1 << len(self.perms)) - 1)

    def _state(self, gens: int) -> int:
        """The id of generator set ``gens``, given the first time it is met."""
        with self._lock:
            if gens not in self._ids:
                self.sets.append(gens)
                self._ids[gens] = len(self.sets) - 1
            return self._ids[gens]

    def row(self, state: int) -> list[int]:
        row = self._rows.get(state)
        if row is None:
            gens = self.sets[state]
            ids = {fix: self._state(gens & fix) for fix in set(self.fixes)}
            row = self._rows[state] = [ids[fix] for fix in self.fixes]
        return row

    def mask(self, state: int) -> int:
        mask = self._masks.get(state)
        if mask is None:
            gens = self.sets[state]
            chosen = [perm for bit, perm in enumerate(self.perms) if gens >> bit & 1]
            mask, seen = 0, bytearray(len(self.fixes))
            for r in range(len(seen)):
                if not seen[r]:
                    mask |= 1 << r
                    seen[r] = 1
                    stack = [r]
                    while stack:
                        x = stack.pop()
                        for perm in chosen:
                            if not seen[y := perm[x]]:
                                seen[y] = 1
                                stack.append(y)
            self._masks[state] = mask
        return mask

    def fetch(self, state: int) -> tuple[bytes, bytes]:
        """State ``state`` for the compiled kernel: its mask, little-endian
        bytes of whole 64-bit words, and its row, a native int32 per rank."""
        width = -(-len(self.fixes) // 64) * 8
        return self.mask(state).to_bytes(width, "little"), array("i", self.row(state)).tobytes()


@lru_cache(maxsize=None)
def _path_cut(factors: tuple[int, ...]) -> _PathCut:
    return _PathCut(factors)


def _scan_from(tables: GroupTables, root: int, forbidden_mask: int, acc, weights,
               max_nodes: int, seconds: float, cut: _PathCut | None = None) -> int:
    """DFS of the task rooted at rank ``root``; returns its nodes.

    The task enters (root,), then every multiset of the ranks from ``root``
    on, lowest first, after it. It starts at the level above the root,
    whose path is empty, enters the root as any child and returns when the
    path is empty again. Each level keeps the weight sum of its path, over
    the per-rank ``weights``. ``acc.enter((path, total))`` is the one
    accumulator call: made once per node entered, with ``total`` the sum
    up to and including the node's rank, it returns whether to descend,
    the kernel's one stop rule. Nothing is called on the way back, so an
    accumulator keeps only its results.

    Every node, the root too, is held to ``max_nodes``: past it, or
    ``seconds`` after the call at a 2048th node, it returns at once, the
    stopping node counted but not entered; ``run_scan`` raises. So an
    allowance of 0 enters nothing and returns 1.

    Each level keeps the blocked mask F | (F - sums(S)), F the forbidden
    set and sums(S) the nonempty subsums of the path S: the ranks h that
    are forbidden or would make a forbidden subsum. Appending h blocks
    ``blocked | translate(blocked, -h)`` in the child, a superset, so the
    child's candidates are the parent's untried ones, h included, minus
    that mask. Only a node that descends is translated.

    With a ``cut``, each level also keeps the ``_PathCut`` state of its
    path (``state = row[h]`` on descent), ``cut.ROOT`` at the level above
    the root; so ``root`` must be least in its class under every
    generator, as ``run_scan``'s roots are. A level in a nonzero state
    enters only the candidates in its ``mask``, least in their class,
    dropping the untried ranks below each child it enters, so that child
    still draws its own children from every untried rank from it on; a
    level in state 0 enters every candidate, as a scan without a cut does.
    """
    deadline = time.monotonic() + seconds
    translate, neg = tables.translate, _rank_lists(tables.factors)[1]
    cand = (1 << tables.size) - (1 << root)
    blocked, state, row, select, total, nodes = forbidden_mask, 0, None, 0, 0, 0
    if cut is not None and cut.ROOT:
        state = cut.ROOT
        row, select = cut.row(state), cut.mask(state)
    path = []
    stack = []  # (untried children, blocked, state, row, select, total) above each path node
    while True:
        if state:
            low = cand & select
            cand &= -(low & -low)  # 0 when no candidate is selected
        if not cand:
            path.pop()
            if not path:
                return nodes
            cand, blocked, state, row, select, total = stack.pop()
            continue
        low = cand & -cand
        h = low.bit_length() - 1
        nodes += 1
        if nodes > max_nodes or not nodes & 2047 and time.monotonic() > deadline:
            return nodes
        path.append(h)
        t = total + weights[h]
        if acc.enter((path, t)):
            stack.append((cand ^ low, blocked, state, row, select, total))
            total = t
            blocked |= translate(blocked, neg[h])
            cand &= ~blocked
            if state and row[h] != state:
                state = row[h]
                if state:
                    row, select = cut.row(state), cut.mask(state)
        else:
            path.pop()
            if not path:
                return nodes
            cand ^= low


# A compiled scan starts threads only after its tasks in the calling thread,
# the smallest ones, have entered this many nodes. Threads are cheap: on a
# 2-core Xeon, starting them after the first task beat one thread on each
# uncut d/k walk measured, C5xC5 (139k nodes, 4.7 against 6.9-8.8 ms),
# C3xC9 (256k, 8.0-8.8 against 14.7-16.7 ms), C2xC4xC4 (508k, 17.7-18.2
# against 34-37 ms) and C2xC2xC8 (638k, 22-23 against 38-46 ms). But many
# tiny tasks contend for the GIL: with no gate, enumerating C300xC300 at
# length 1 (89,999 one-node tasks) took 0.58 s instead of 0.34 s. And at
# 150k the benchmark's C3xC9 cross-number check would start threads; this
# gate keeps every benchmark command in one thread.
_THREAD_GATE_NODES = 350_000


def _usable_cpus() -> int:
    """How many CPUs this process may run on; where the affinity cannot be
    read, ``os.cpu_count()``, at least 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_scan(group: AbelianGroup, acc_factory: Callable[[], object], *,
             weights=None,
             budget: SearchBudget | None = None,
             forbidden_mask: int = 1,
             symmetric: bool = False) -> tuple[list, int]:
    """Run one accumulator per root; return (accs, total nodes).

    ``weights`` gives each rank the weight whose sum along the path every
    ``enter`` receives (``_scan_from``), 0 without it; packed here once as
    native int32, so a weight outside int32 raises ValueError on either
    kernel. The roots are the ranks outside ``forbidden_mask``, a mask of at most
    |G| bits, listed ascending in one pass over its bits, not a quadratic
    shift per rank. Root g's task is handed g and walks the ranks from g on
    that the mask does not block, so each multiset of the other ranks is
    walked once, by the task of its least rank. That mask is the scan's
    one restriction and ``enter`` its one stop rule: each accumulator ends
    its own branches. The Aut(G)-invariant searches pass ``symmetric`` with
    an Aut(G)-invariant mask: only the roots least in their class under
    every generator of the group's ``_PathCut`` are kept, and each task
    cuts every level from the one above the root. All accumulators are made here and come back in root order whatever
    the thread count and the schedule, so merging them is deterministic.
    Every accumulator of a scan comes from one factory: one class, one
    rule. The tasks run on the compiled kernel when it loads
    (``_kernel.load``, called here alone, before the scan's clock starts,
    so that a first build is set-up of the first command that searches)
    and the first accumulator's own class defines ``kernel_rule``
    (``_compiled``): ``_CountAcc``, ``_ExtremaAcc``, ``_MinMaxOrderAcc``
    and ``_ViolationAcc``, not a subclass or a wrapper. Otherwise they run
    on ``_scan_from``, every one in this thread. Each compiled Scan takes
    that accumulator's ``kernel_rule()`` once, and ``run_one`` hands each
    task's accumulator its walk's result, so the kernel touches no Python
    attribute. Compiled tasks run from the last root down in this thread
    until the scan has entered more than ``_THREAD_GATE_NODES`` and at
    least two usable CPUs (``_usable_cpus``) have a task left; those
    remaining, larger tasks then run on threads, one per CPU up to one per
    task, which only walk and are not pinned (``_run_threads``).

    A task, its root too, enters no more than the nodes the scan has left,
    those of ``budget.max_nodes`` not yet summed when it starts, and stops
    at the deadline: ``run_one`` hands either kernel that allowance and the
    seconds left, not the clock. So a scan in one thread enters at most
    ``max_nodes`` nodes. ``tally``, which only this thread calls, summing
    the nodes of the tasks as they finish, is the one place a budget error
    is raised. Once the sum is above ``max_nodes`` it reports nodes_visited
    ``max_nodes + 1``: so a scan is exceeded iff its full node total is, at
    every thread count. Once the clock is past the deadline it reports the
    sum, the nodes of every task tallied so far.
    """
    budget = budget or DEFAULT_BUDGET
    tables = tables_for(group)
    max_nodes = budget.max_nodes
    root_mask = ((1 << tables.size) - 1) & ~forbidden_mask
    cut = None
    if symmetric:
        cut = _path_cut(tables.factors)
        root_mask &= cut.mask(cut.ROOT)
    roots = [g for g, bit in enumerate(bin(root_mask)[:1:-1]) if bit == "1"]
    try:
        packed = bytes(4 * tables.size) if weights is None else array("i", weights).tobytes()
    except OverflowError:
        raise ValueError("every weight of a scan must fit in a native 32-bit int") from None

    kernel = _kernel.load()  # a first build is set-up, before the clock starts
    started = time.monotonic()
    deadline = started + budget.max_seconds
    accs = [acc_factory() for _ in roots]
    nodes = 0
    compiled = accs and kernel and _compiled(kernel, tables, accs[0], forbidden_mask,
                                             packed, cut)
    if compiled:
        scan, cpus = compiled(), _usable_cpus()
    else:
        scan, cpus = None, 0  # the Python kernel starts no thread
        if weights is None:
            weights = bytes(tables.size)

    def run_one(scan, index: int) -> int:
        allowance, seconds = max_nodes - nodes, deadline - time.monotonic()
        if scan is None:
            return _scan_from(tables, roots[index], forbidden_mask, accs[index], weights,
                              allowance, seconds, cut)
        result = scan.walk(roots[index], allowance, seconds)
        accs[index].kernel_result(result)
        return result[0]

    def tally(task_nodes: int) -> None:
        nonlocal nodes
        nodes += task_nodes
        if nodes > max_nodes:
            raise BudgetExceededError(
                f"node budget {max_nodes} exhausted", nodes_visited=max_nodes + 1,
                elapsed_seconds=time.monotonic() - started)
        if time.monotonic() > deadline:
            raise BudgetExceededError(
                "time budget exhausted", nodes_visited=nodes,
                elapsed_seconds=time.monotonic() - started)

    left = len(roots)
    while left and (nodes <= _THREAD_GATE_NODES or min(cpus, left) < 2):
        left -= 1
        tally(run_one(scan, left))
    if left:
        _run_threads([scan] + [compiled() for _ in range(1, min(cpus, left))], left,
                     run_one, tally)
    return accs, nodes


def _compiled(kernel, tables: GroupTables, acc, forbidden_mask: int, weights: bytes,
              cut: _PathCut | None):
    """A factory of compiled Scans of this scan, one for each thread that
    walks it, each with ``acc``'s rule, which every accumulator of the scan
    shares, and ``weights`` packed as native int32; None unless ``acc``'s
    own class (not a base class) defines ``kernel_rule``."""
    if "kernel_rule" not in vars(type(acc)):
        return None
    width = -(-tables.size // 64) * 8
    spec = None if cut is None else (cut.ROOT, cut.fetch)
    forbidden = (forbidden_mask & ((1 << tables.size) - 1)).to_bytes(width, "little")
    return partial(kernel.Scan, tables.factors, forbidden, weights, spec, *acc.kernel_rule())


def _run_threads(scans: list, count: int, run_one: Callable[[object, int], int],
                 tally: Callable[[int], None]) -> None:
    """Run tasks ``0 .. count-1`` on one thread per compiled Scan of
    ``scans``, which only walk; this thread passes the nodes of each task to
    ``tally``.

    Thread w walks on ``scans[w]``, on whichever usable CPU the operating
    system gives it (no thread is pinned), the task indices it takes in
    ascending order, largest subtrees first, from one shared iterator. It
    puts each task's nodes on one queue, or the exception that ended it,
    then None.
    The first exception, from a task, from ``tally`` or while this thread
    waits, Ctrl-C included, stops every walk (``Scan.stop``) and empties
    the iterator, so no task starts after it. It is raised once every
    thread has ended, as read from the queue, not join(): on CPython 3.11
    a join() that Ctrl-C interrupts marks its thread ended while it runs.
    """
    import _queue  # queue.SimpleQueue, without queue.py's own imports
    import threading
    tasks = iter(range(count))
    results = _queue.SimpleQueue()

    def halt() -> None:
        for scan in scans:
            scan.stop()
        for _ in tasks:
            pass

    def work(scan) -> None:
        try:
            for index in tasks:
                results.put(run_one(scan, index))
        except BaseException as err:  # raised by the calling thread
            halt()  # now, not once the calling thread reads the error
            results.put(err)
        finally:
            results.put(None)

    threads = [threading.Thread(target=work, args=(scan,)) for scan in scans]
    running = 0  # the threads started whose None is not yet read
    try:
        for thread in threads:
            thread.start()
            running += 1
        while running:
            item = results.get()
            if item is None:
                running -= 1
            elif isinstance(item, int):
                tally(item)
            else:
                raise item
    except BaseException:  # a task's, tally's, Ctrl-C, or a thread that could not start
        halt()
        while running:
            running -= results.get() is None
        raise
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()  # it has put its None: it is ending


def _subgroup_mask(group: AbelianGroup, d: int) -> int:
    """Bitmask of the ranks whose order divides d."""
    orders = _rank_lists(group.invariant_factors)[0]
    return sum(1 << r for r, order in enumerate(orders) if d % order == 0)


# -- accumulators -------------------------------------------------------------

# Each accumulator below gives its MODE_* in the compiled kernel and its
# rule by ``kernel_rule()``, taken once per compiled Scan, and
# ``kernel_result`` takes the result of one walk, (nodes, value_a,
# value_b, path_a, path_b, kept) as documented in _kernel.c, from a fresh
# accumulator's state; ``_ranks`` reads its paths.

def _ranks(path: bytes) -> tuple[int, ...] | None:
    """A walk's path, native int32 ranks, as a tuple; None where it is
    empty, as a found path never is."""
    return tuple(array("i", path)) if path else None


class _CountAcc:
    """Counts sequences at one exact depth, where it stops, keeping them if ``keep``."""

    __slots__ = ("target", "count", "hits")

    def __init__(self, target: int, keep: bool):
        self.target = target
        self.count = 0
        self.hits: list[tuple[int, ...]] | None = [] if keep else None

    def kernel_rule(self):
        return 0, self.target, self.hits is not None  # MODE_COUNT

    def kernel_result(self, result):
        _, self.count, _, _, _, kept = result
        if self.hits is not None and kept:  # native int32 ranks, ``target`` per path
            self.hits = list(zip(*[iter(array("i", kept))] * self.target))

    def enter(self, node):
        path = node[0]
        if len(path) == self.target:
            self.count += 1
            if self.hits is not None:
                self.hits.append(tuple(path))
        return len(path) < self.target


class _ExtremaAcc:
    """Longest path and path of largest cross number, in one walk.

    ``best_len``/``best`` is the first longest path entered and
    ``best_scaled``/``best_cross`` the first path whose cross number, scaled
    by exp(G) (the path's total over ``_cross_weights``), is largest: each
    the lexicographically least maximizer.
    """

    __slots__ = ("best_len", "best", "best_scaled", "best_cross")

    def __init__(self):
        self.best_len = 0
        self.best: tuple[int, ...] | None = None
        self.best_scaled = 0
        self.best_cross: tuple[int, ...] | None = None

    def kernel_rule(self):
        return 1, 0, 0  # MODE_EXTREMA

    def kernel_result(self, result):
        _, self.best_len, self.best_scaled, best, best_cross, _ = result
        self.best, self.best_cross = _ranks(best), _ranks(best_cross)

    def enter(self, node):
        path, scaled = node
        if len(path) > self.best_len:
            self.best_len = len(path)
            self.best = tuple(path)
        if scaled > self.best_scaled:
            self.best_scaled = scaled
            self.best_cross = tuple(path)
        return True


class _MinMaxOrderAcc:
    """Minimal max-order count over sequences of one exact length.

    The path's total is its max-order count (weight 1 per maximal-order
    rank). The count only grows along a branch, so once a witness exists
    any branch whose count reaches it can be cut without affecting the
    minimum or the lexicographically least minimizer.
    """

    __slots__ = ("target", "best_count", "best")

    def __init__(self, target):
        self.target = target
        self.best_count: int | None = None
        self.best: tuple[int, ...] | None = None

    def kernel_rule(self):
        return 2, self.target, 0  # MODE_MINMAX

    def kernel_result(self, result):
        _, count, _, best, _, _ = result
        if best:
            self.best_count, self.best = count, _ranks(best)

    def enter(self, node):
        path, count = node
        if self.best_count is not None and count >= self.best_count:
            return False
        if len(path) == self.target:
            self.best_count = count
            self.best = tuple(path)
            return False
        return True


class _ViolationAcc:
    """Records the first (lexicographically least) sequence that violates:
    one of length at least ``min_length`` whose total, the sum of its
    check's per-element weights, exceeds ``bound``. Every check states its
    claim in that form (``verifier``), so one compiled mode runs them all,
    with ``(min_length, bound)`` as its rule.

    It descends unless it records a violation; once one is recorded the
    rest of this task's walk is pruned, so node counts stay exhaustive
    exactly when the verdict is 'verified'.
    """

    __slots__ = ("min_length", "bound", "counterexample")

    def __init__(self, min_length: int, bound: int):
        self.min_length, self.bound = min_length, bound
        self.counterexample: tuple[int, ...] | None = None

    def kernel_rule(self):
        return 3, self.min_length, self.bound  # MODE_VIOLATION

    def kernel_result(self, result):
        self.counterexample = _ranks(result[3])

    def enter(self, node):
        if self.counterexample is not None:
            return False
        path, total = node
        if len(path) >= self.min_length and total > self.bound:
            self.counterexample = tuple(path)
            return False
        return True


# -- public operations -------------------------------------------------------

def enumerate_zero_sumfree(group: AbelianGroup, exact_length: int,
                           visitor: Callable[[GSequence], None] | None = None,
                           *, budget: SearchBudget | None = None) -> int:
    """Visit every canonical zero-sumfree multiset of the exact length once.

    Returns the visit count. The visits come after the search, in
    lexicographic order of the rank tuples at every thread count.
    """
    _exact_ints((exact_length,), "length", ValueError)
    if exact_length < 0:
        raise ValueError("length must be nonnegative")
    if exact_length == 0:
        if visitor is not None:
            visitor(GSequence.empty(group))
        return 1
    keep = visitor is not None
    accs, _ = run_scan(group, lambda: _CountAcc(exact_length, keep), budget=budget)
    if keep:
        for acc in accs:
            for path in acc.hits:
                visitor(GSequence.from_ranks(group, path))
    return sum(acc.count for acc in accs)


def zero_sumfree_extrema(group: AbelianGroup, budget: SearchBudget | None = None
                         ) -> tuple[int, GSequence, Fraction, GSequence]:
    """Exact d(G) and k(G) from one walk: (d, its witness, k, its witness).
    Each witness is the lexicographically least maximizer: ``max`` keeps the
    first root task that reaches the maximum."""
    accs, _ = run_scan(group, _ExtremaAcc, weights=_cross_weights(group), budget=budget,
                       symmetric=True)
    d_acc = max(accs, key=lambda acc: acc.best_len)
    k_acc = max(accs, key=lambda acc: acc.best_scaled)
    return (d_acc.best_len, GSequence.from_ranks(group, d_acc.best),
            Fraction(k_acc.best_scaled, group.exponent),
            GSequence.from_ranks(group, k_acc.best_cross))


def longest_avoiding(group: AbelianGroup, pair: DivisorPair,
                     budget: SearchBudget | None = None) -> tuple[int, GSequence]:
    """Longest sequence over G_d with no nonempty subsum in G_{d/d'}.
    The scan forbids G_{d/d'} and, exactly, every rank outside G_d: the
    subsums over the subgroup G_d stay in it, so those ranks block none of
    G_d and only keep the walk inside it. Both sets are Aut(G)-invariant.
    It passes no weights: only the longest path is read."""
    pair.validate_for(group)
    every = (1 << group.cardinality) - 1
    forbidden = (_subgroup_mask(group, pair.quotient) | ~_subgroup_mask(group, pair.d)) & every
    if forbidden == every:
        return 0, GSequence.empty(group)
    accs, _ = run_scan(group, _ExtremaAcc, budget=budget, forbidden_mask=forbidden,
                       symmetric=True)
    # every task's root is entered, so the longest path is never empty
    best = max(accs, key=lambda acc: acc.best_len)
    return best.best_len, GSequence.from_ranks(group, best.best)


def d_pair_bruteforce(group: AbelianGroup, pair: DivisorPair,
                      budget: SearchBudget | None = None) -> int:
    """Exact two-level Davenport constant by enumeration inside G_d."""
    best_len, _ = longest_avoiding(group, pair, budget)
    return best_len + 1


def _gamma_scan(group: AbelianGroup, delta: int, budget: SearchBudget | None,
                symmetric: bool = False) -> tuple[int, tuple[int, ...], int]:
    """Shared core of the gamma search: (minimum, witness ranks, nodes).
    It walks every root, or with ``symmetric`` the cut roots and the cut
    below them."""
    _check_delta(group, delta)  # before the tables and the cut are built
    target = davenport_p_group(group) - delta
    exp = group.exponent
    is_max = [1 if o == exp else 0 for o in _rank_lists(group.invariant_factors)[0]]
    accs, nodes = run_scan(group, lambda: _MinMaxOrderAcc(target), weights=is_max,
                           budget=budget, symmetric=symmetric)
    found = [acc for acc in accs if acc.best_count is not None]
    if not found:
        raise InternalCheckError(
            f"no zero-sumfree sequence of length {target} in {group}")
    best = min(acc.best_count for acc in found)
    ranks = next(acc.best for acc in found if acc.best_count == best)
    return best, ranks, nodes


def gamma_exact(group: AbelianGroup, delta: int,
                budget: SearchBudget | None = None) -> tuple[int, GSequence]:
    """Minimal number of maximal-order elements over zero-sumfree sequences
    of length d(G) - delta, with the lexicographically least minimizer.

    Deleting elements preserves zero-sumfreeness and never increases the
    max-order count, so the minimum over lengths >= d(G) - delta is attained
    at that exact length; only it is searched.
    """
    best, ranks, _ = _gamma_scan(group, delta, budget, symmetric=True)
    return best, GSequence.from_ranks(group, ranks)


# -- hybrid closed-form / oracle helpers ---------------------------------------

def davenport_constant(group: AbelianGroup,
                       budget: SearchBudget | None = None) -> int:
    """D(G): closed form where known, exhaustive search otherwise."""
    try:
        return davenport_closed_form(group)
    except NeedsOracleError:
        return zero_sumfree_extrema(group, budget)[0] + 1


def d_pair_value(group: AbelianGroup, pair: DivisorPair,
                 budget: SearchBudget | None = None) -> int:
    """Two-level Davenport constant via the reduced-group identity.

    The reduction itself is closed-form; the reduced group's Davenport
    constant falls back to search when it has no closed form. Independent
    of :func:`longest_avoiding`, which never leaves the ambient group and
    against which a ``dpair`` certificate checks it.
    """
    reduced = reduced_group(group, pair)
    if reduced is None:
        return 1
    return davenport_constant(reduced, budget)
