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
elementary automorphisms that fix every rank of its path (``_PathCut``):
at the root, with the empty path, under all of them. Values and
witnesses are those of the full walk, and only node counts fall.
``check`` and ``enumerate`` take every root and no cut.
A task runs on one of two kernels that walk the same nodes in the same
order: ``_scan_from`` in Python, or its compiled twin in ``_kernel.c``
(built once per source by ``_kernel.load``) when every accumulator of the
scan is one that the twin runs. The Python kernel is the fallback and the
differential oracle of the compiled one, and runs every task in the
calling thread. The compiled one runs its smallest tasks there first;
once those have entered more than ``_THREAD_GATE_NODES``, the rest go to
threads, one per usable CPU up to one per task left, each pinned to its
CPU, as the compiled walk releases the GIL. Results
merge by root with a lexicographic tie-break, so values, witnesses, node
counts and budget verdicts do not depend on the kernel, the thread count
or the schedule.
"""

from __future__ import annotations

import math
import os
import time
from fractions import Fraction
from functools import lru_cache
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
    # a rank's shift is shift[x*m + y], x and y its coordinates k and i;
    # index[r] is x*m + y, built one factor at a time as the rank lists are
    stride = math.prod(factors[:k])
    shift = [((a * x + b * y) % n - x) * stride for x in range(n) for y in range(m)]
    index = [0]
    for j, n_j in enumerate(factors):
        weight = (m if j == k else 0) + (j == i)
        index = [t + weight * c for c in range(n_j) for t in index] if weight else index * n_j
    perm = [r + shift[t] for r, t in enumerate(index)]
    if len(set(perm)) != len(perm):
        raise InternalCheckError(f"{generator} is not a bijection of {factors}")
    return perm


class _PathCut(dict):
    """The cut below the root for one group, from the checked ``_generators``.

    ``fixes[h]`` is the bitmask of the generators that fix rank h. The dict
    maps a bitmask ``fix`` of generators to the mask of the least rank of
    each class under them, computed as first asked for: one class at a time,
    walked from its least rank through the chosen rank permutations.
    ``self[self.full]``, the classes under every generator, names the roots.
    Each generator is an automorphism, so each class lies in one Aut(G)
    orbit and the least rank of every orbit is kept.
    """

    __slots__ = ("perms", "full", "fixes")

    def __init__(self, factors: tuple[int, ...]):
        super().__init__()
        self.perms = [_automorphism(factors, gen) for gen in _generators(factors)]
        self.full = (1 << len(self.perms)) - 1
        self.fixes = [0] * math.prod(factors)
        for bit, perm in enumerate(self.perms):
            for r in [r for r, y in enumerate(perm) if r == y]:
                self.fixes[r] |= 1 << bit

    def __missing__(self, fix: int) -> int:
        chosen = [perm for bit, perm in enumerate(self.perms) if fix >> bit & 1]
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
        self[fix] = mask
        return mask


@lru_cache(maxsize=None)
def _path_cut(factors: tuple[int, ...]) -> _PathCut:
    return _PathCut(factors)


def _scan_from(tables: GroupTables, root: int, forbidden_mask: int, acc, weights,
               max_nodes: int, deadline: float, cut: _PathCut | None = None) -> int:
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

    Every node, the root too, is held to ``max_nodes``: past it, or past
    ``deadline`` at a 2048th node, it returns at once, the stopping node
    counted but not entered; ``run_scan`` raises. So an allowance of 0
    enters nothing and returns 1.

    Each level keeps the blocked mask F | (F - sums(S)), F the forbidden
    set and sums(S) the nonempty subsums of the path S: the ranks h that
    are forbidden or would make a forbidden subsum. Appending h blocks
    ``blocked | translate(blocked, -h)`` in the child, a superset, so the
    child's candidates are the parent's untried ones, h included, minus
    that mask. Only a node that descends is translated.

    With a ``cut``, each level also keeps ``fix``, the bitmask of the
    generators that fix every rank of its path (``fix &= fixes[h]`` on
    descent), ``cut.full`` at the level above the root; so ``root`` must be
    least in its class under every generator, as ``run_scan``'s roots are.
    A level with ``fix`` nonzero enters only the candidates least in their
    class under those generators, dropping the untried ranks below each
    child it enters, so that child still draws its own children from every
    untried rank from it on; a level with ``fix`` zero enters every
    candidate, as a scan without a cut does.
    """
    translate, neg = tables.translate, _rank_lists(tables.factors)[1]
    cand = (1 << tables.size) - (1 << root)
    blocked, fix, select, total, nodes = forbidden_mask, 0, 0, 0, 0
    if cut is not None:
        fixes, fix = cut.fixes, cut.full
        select = cut[fix]
    path = []
    stack = []  # (untried children, blocked, fix, select, total) above each path node
    while True:
        if fix:
            low = cand & select
            cand &= -(low & -low)  # 0 when no candidate is selected
        if not cand:
            path.pop()
            if not path:
                return nodes
            cand, blocked, fix, select, total = stack.pop()
            continue
        low = cand & -cand
        h = low.bit_length() - 1
        nodes += 1
        if nodes > max_nodes or not nodes & 2047 and time.monotonic() > deadline:
            return nodes
        path.append(h)
        t = total + weights[h]
        if acc.enter((path, t)):
            stack.append((cand ^ low, blocked, fix, select, total))
            total = t
            blocked |= translate(blocked, neg[h])
            cand &= ~blocked
            if fix:
                fix &= fixes[h]
                if fix:
                    select = cut[fix]
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


def _usable_cpus() -> list[int | None]:
    """The sorted CPUs this process may run on; where the affinity cannot
    be read, ``os.cpu_count()`` entries of None, which pin nothing."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return [None] * (os.cpu_count() or 1)


def run_scan(group: AbelianGroup, acc_factory: Callable[[], object], *,
             weights=None,
             budget: SearchBudget | None = None,
             forbidden_mask: int = 1,
             symmetric: bool = False) -> tuple[list, int]:
    """Run one accumulator per root; return (accs, total nodes).

    ``weights`` gives each rank the weight whose sum along the path every
    ``enter`` receives (``_scan_from``); without it every weight is 0.
    The roots are the ranks outside ``forbidden_mask``, a mask of at most
    |G| bits, listed ascending in one pass over its bits, not a quadratic
    shift per rank. Root g's task is handed g and walks the ranks from g on
    that the mask does not block, so each multiset of the other ranks is
    walked once, by the task of its least rank. That mask is the scan's
    one restriction and ``enter`` its one stop rule: each accumulator ends
    its own branches. The Aut(G)-invariant searches pass ``symmetric`` with an
    Aut(G)-invariant mask: only the roots least in their class under every
    generator of the group's ``_PathCut`` are kept, and ``_scan_from`` cuts
    every level from the one above the root.
    All accumulators are made here and come back in root order whatever
    the thread count and the schedule, so merging them is deterministic.
    The tasks run on the compiled kernel when it loads (``_kernel.load``,
    called before the scan's clock starts, so that a first build is
    set-up) and every accumulator's own class names a ``kernel_mode``
    (``_compiled``): ``_CountAcc``, ``_ExtremaAcc``, ``_MinMaxOrderAcc``
    and ``verifier._ViolationAcc``, not a subclass or a wrapper. Otherwise
    they run on ``_scan_from``, every one in this thread. Compiled tasks
    run from the last root down in this thread until the scan has entered
    more than ``_THREAD_GATE_NODES`` and at least two usable CPUs
    (``_usable_cpus``) have a task left; those remaining, larger tasks then
    run on threads, one per CPU up to one per task (``_run_threads``).

    A task, its root too, enters no more than the nodes the scan has left,
    those of ``budget.max_nodes`` not yet summed when it starts, and stops
    at the deadline (``_scan_from``; the compiled kernel is handed the
    seconds left, not the clock); so a scan in one thread enters at most
    ``max_nodes`` nodes. ``tally``, which sums the nodes of the tasks as
    they finish, is the one place a budget error is raised. Once the sum
    is above ``max_nodes`` it reports nodes_visited ``max_nodes + 1``: so a
    scan is exceeded iff its full node total is, at every thread count.
    Once the clock is past the deadline it reports the sum, the nodes of
    every task run so far.
    """
    budget = budget or DEFAULT_BUDGET
    tables = tables_for(group)
    max_nodes = budget.max_nodes
    root_mask = ((1 << tables.size) - 1) & ~forbidden_mask
    cut = None
    if symmetric:
        cut = _path_cut(tables.factors)
        root_mask &= cut[cut.full]
    roots = [g for g, bit in enumerate(bin(root_mask)[:1:-1]) if bit == "1"]

    kernel = _kernel.load()  # a first build is set-up, before the clock starts
    started = time.monotonic()
    deadline = started + budget.max_seconds
    accs = [acc_factory() for _ in roots]
    nodes = 0
    compiled = kernel and _compiled(kernel, tables, accs, forbidden_mask, weights, cut)
    if compiled:
        scans, modes = compiled
        scan = next(scans)
        cpus = _usable_cpus()

        def run_one(scan, index: int) -> int:
            return scan.walk(roots[index], accs[index], modes[index], max_nodes - nodes,
                             deadline - time.monotonic())
    else:
        if weights is None:
            weights = bytes(tables.size)
        scan, cpus = None, []  # the Python kernel starts no thread

        def run_one(_, index: int) -> int:
            return _scan_from(tables, roots[index], forbidden_mask, accs[index], weights,
                              max_nodes - nodes, deadline, cut)

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
    while left and (nodes <= _THREAD_GATE_NODES or min(len(cpus), left) < 2):
        left -= 1
        tally(run_one(scan, left))
    if left:
        cpus = cpus[:left]
        _run_threads([scan] + [next(scans) for _ in cpus[1:]], cpus, left, run_one, tally)
    return accs, nodes


def _compiled(kernel, tables: GroupTables, accs: list, forbidden_mask: int, weights,
              cut: _PathCut | None):
    """(scans, modes): an endless iterator of compiled Scans of this scan,
    one for each thread that walks it, and each task's accumulator mode;
    None unless every accumulator's own class (not a base class) names a
    ``kernel_mode`` and every weight fits in 32 bits. The first Scan is
    built here, where that is checked."""
    modes = [vars(type(acc)).get("kernel_mode") for acc in accs]
    if None in modes:
        return None
    width = -(-tables.size // 64) * 8
    spec = None
    if cut is not None:
        gwidth = -(-max(len(cut.perms), 1) // 64) * 8
        spec = (b"".join(fix.to_bytes(gwidth, "little") for fix in cut.fixes),
                cut.full.to_bytes(gwidth, "little"),
                lambda fix: cut[int.from_bytes(fix, "little")].to_bytes(width, "little"))
    forbidden = (forbidden_mask & ((1 << tables.size) - 1)).to_bytes(width, "little")
    args = (tables.factors, forbidden, weights, spec)
    try:
        first = kernel.Scan(*args)
    except OverflowError:
        return None

    def scans():
        yield first
        while True:
            yield kernel.Scan(*args)
    return scans(), modes


def _run_threads(scans: list, cpus: list[int | None], count: int,
                 run_one: Callable[[object, int], int],
                 tally: Callable[[int], None]) -> None:
    """Run tasks ``0 .. count-1`` on one thread per entry of ``cpus``,
    passing the nodes of each to ``tally`` as it finishes.

    Thread w walks its tasks on ``scans[w]``, a compiled Scan of its own,
    and first pins itself to ``cpus[w]`` (on Linux this pins the calling
    thread alone; where it fails it runs unpinned). The threads take task
    indices in ascending order, largest subtrees first, from one shared
    iterator, and ``tally`` runs under one lock. The first exception, from
    a task or from ``tally``, stops every walk (``Scan.stop``), as does
    one that reaches this thread while it waits, Ctrl-C included; it is
    raised once every thread has ended.
    """
    import contextlib
    import threading
    tasks = iter(range(count))
    lock = threading.Lock()
    failed: list[BaseException] = []

    def stop(err: BaseException) -> None:
        failed.append(err)
        for scan in scans:
            scan.stop()

    def work(scan, cpu: int | None, end) -> None:
        try:
            if cpu is not None:
                with contextlib.suppress(OSError):
                    os.sched_setaffinity(0, {cpu})
            for index in tasks:
                task_nodes = run_one(scan, index)
                with lock:
                    if failed:
                        return
                    tally(task_nodes)
        except BaseException as err:  # re-raised by the waiting thread
            stop(err)
        finally:
            end.set()

    # Each thread sets its own event as it ends, and this thread waits on
    # those: on CPython 3.11 a join() that Ctrl-C interrupts marks its thread
    # as ended while it still runs, and no later join() waits for it.
    ends = [threading.Event() for _ in scans]
    threads = [threading.Thread(target=work, args=args) for args in zip(scans, cpus, ends)]
    try:
        for thread in threads:
            thread.start()
        for end in ends:
            end.wait()
    except BaseException as err:  # Ctrl-C, or a thread that could not start
        stop(err)
        for thread, end in zip(threads, ends):
            if thread.ident is not None:
                end.wait()
        raise
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    if failed:
        raise failed[0]


def _subgroup_mask(group: AbelianGroup, d: int) -> int:
    """Bitmask of the ranks whose order divides d."""
    orders = _rank_lists(group.invariant_factors)[0]
    return sum(1 << r for r, order in enumerate(orders) if d % order == 0)


# -- accumulators -------------------------------------------------------------

class _CountAcc:
    """Counts sequences at one exact depth, where it stops, keeping them if ``keep``."""

    __slots__ = ("target", "count", "hits")
    kernel_mode = 0  # its MODE_* in the compiled kernel, _kernel.c

    def __init__(self, target: int, keep: bool):
        self.target = target
        self.count = 0
        self.hits: list[tuple[int, ...]] | None = [] if keep else None

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
    kernel_mode = 1  # its MODE_* in the compiled kernel, _kernel.c

    def __init__(self):
        self.best_len = 0
        self.best: tuple[int, ...] | None = None
        self.best_scaled = 0
        self.best_cross: tuple[int, ...] | None = None

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
    kernel_mode = 2  # its MODE_* in the compiled kernel, _kernel.c

    def __init__(self, target):
        self.target = target
        self.best_count: int | None = None
        self.best: tuple[int, ...] | None = None

    def enter(self, node):
        path, count = node
        if self.best_count is not None and count >= self.best_count:
            return False
        if len(path) == self.target:
            self.best_count = count
            self.best = tuple(path)
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
