"""Pruned exhaustive search over sequences in a group.

The engine walks canonical (rank-nondecreasing) multisets depth-first.
Every node carries the bitmask of the ranks it may not append: those in a
forbidden set (the zero element, or a whole subgroup for the two-level
Davenport constant) or making a subsum in it. So only the children that
survive are generated. Every invariant computed here is exact; budget
exhaustion is an error, never an estimate.

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
A scan runs its smallest tasks in-process first; once those have entered
more than ``_FORK_GATE_NODES`` nodes, the rest go to forked worker
processes (where ``os.fork`` exists), as many as the usable CPUs and the
tasks left allow, each pinned to a CPU of its own while there are enough.
Results merge by root with a lexicographic tie-break, so values,
witnesses, node counts and budget verdicts do not depend on the worker
count or on the schedule.
"""

from __future__ import annotations

import math
import os
import time
from fractions import Fraction
from functools import lru_cache
from typing import Callable

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


def _scan_from(tables: GroupTables, root: int, cand: int, forbidden_mask: int,
               max_depth: int, acc, max_nodes: int, deadline: float,
               cut: _PathCut | None = None) -> int:
    """DFS of the task of ``root``; returns the nodes entered.

    The task enters (root,), then every multiset of the ``cand`` ranks,
    lowest bit first, after it. ``acc.enter(path)`` is called once per
    state entered and returns whether to descend; ``acc.leave(path)`` is
    called on the way back, after every enter. The root is counted but not
    held to ``max_nodes``; if it does not descend, the task ends there.

    Past ``max_nodes``, or past ``deadline`` at a 2048th node, it returns
    at once, the stopping node counted but not entered; ``run_scan`` raises.

    Each level keeps the blocked mask F | (F - sums(S)), F the forbidden
    set and sums(S) the nonempty subsums of the path S: the ranks h that
    are forbidden or would make a forbidden subsum. Appending h blocks
    ``blocked | translate(blocked, -h)`` in the child, a superset, so the
    child's candidates are the parent's untried ones, h included, minus
    that mask. Only a node that descends is translated.

    With a ``cut``, each level also keeps ``fix``, the bitmask of the
    generators that fix every rank of its path (``fix &= fixes[h]`` on
    descent). A level with ``fix`` nonzero enters only the candidates least
    in their class under those generators, dropping the untried ranks below
    each child it enters, so that child still draws its own children from
    every untried rank from it on; a level with ``fix`` zero enters every
    candidate, as a scan without a cut does.
    """
    translate, neg = tables.translate, _rank_lists(tables.factors)[1]
    blocked = forbidden_mask
    fix = select = 0
    path = [root]
    stack = []  # (untried children, blocked, fix, select) of each node but the last
    if acc.enter(path) and max_depth > 1:
        blocked |= translate(blocked, neg[root])
        cand &= ~blocked
        if cut is not None:
            fixes = cut.fixes
            fix = cut.full & fixes[root]
            if fix:
                select = cut[fix]
    else:
        cand = 0
    nodes = 1
    while True:
        if fix:
            low = cand & select
            cand &= -(low & -low)  # 0 when no candidate is selected
        if not cand:
            acc.leave(path)
            path.pop()
            if not stack:
                return nodes
            cand, blocked, fix, select = stack.pop()
            continue
        low = cand & -cand
        h = low.bit_length() - 1
        nodes += 1
        if nodes > max_nodes or not nodes & 2047 and time.monotonic() > deadline:
            return nodes
        path.append(h)
        if acc.enter(path) and len(path) < max_depth:
            stack.append((cand ^ low, blocked, fix, select))
            blocked |= translate(blocked, neg[h])
            cand &= ~blocked
            if fix:
                fix &= fixes[h]
                if fix:
                    select = cut[fix]
        else:
            acc.leave(path)
            path.pop()
            cand ^= low


# A scan forks only after its in-process tasks, the smallest ones, have
# entered this many nodes. Forking, feeding and reaping two workers costs
# 3.4 ms on a 2-core Xeon (10 ms with the imports of a process's first fork),
# up to 8k nodes of DFS at 650-800k nodes/s: the tasks left are worth more.
_FORK_GATE_NODES = 20_000
# Indices queued in the task pipe at once: 4 bytes each, so every write
# is at most 512 bytes (POSIX PIPE_BUF) and the pipe never fills.
_TASK_WINDOW = 128


def _usable_cpus() -> list[int | None]:
    """The sorted CPUs this process may run on; where the affinity cannot
    be read, ``os.cpu_count()`` entries of None, which pin nothing."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return [None] * (os.cpu_count() or 1)


def run_scan(group: AbelianGroup, acc_factory: Callable[[], object], *,
             budget: SearchBudget | None = None,
             allowed: int | None = None,
             forbidden_mask: int = 1,
             max_depth: int | None = None,
             symmetric: bool = False) -> tuple[list, int]:
    """Run one accumulator per root; return (accs, total nodes).

    The roots are the ranks of ``allowed`` (default: every rank) outside
    ``forbidden_mask``, ascending; root g's task walks the allowed ranks
    from g on, so each multiset over ``allowed`` is walked once, by the
    task of its least rank. The Aut(G)-invariant searches pass
    ``symmetric`` with an Aut(G)-invariant mask: only the roots least in
    their class under every generator of the group's ``_PathCut`` are kept,
    and ``_scan_from`` cuts every level below.
    All accumulators are made here, in this process, and come back in root
    order whatever the worker count and the schedule, so merging them is
    deterministic. Tasks run from the last root down in-process until the
    scan has entered more than ``_FORK_GATE_NODES`` nodes and at least two
    usable CPUs (``_usable_cpus``; one without ``os.fork``) have a task left;
    those remaining, larger tasks then run in forked workers, one per CPU up
    to one per task (``_run_forked``), whose accumulator state is copied
    back into these accumulators.

    A task stops early once it passes the nodes the scan has left, those of
    ``budget.max_nodes`` not yet summed (at the fork, for a forked task), or
    the deadline (``_scan_from``); so a scan in one process enters at most
    ``max_nodes + 1`` nodes. ``tally``, which sums the nodes of the tasks as
    they finish, is the one place a budget error is raised. Once the sum is
    above ``max_nodes`` it reports nodes_visited ``max_nodes + 1``: so a
    scan is exceeded iff its full node total is, at every worker count.
    Once the clock is past the deadline it reports the sum, the nodes of
    every task run so far.
    """
    budget = budget or DEFAULT_BUDGET
    tables = tables_for(group)
    if allowed is None:
        allowed = (1 << tables.size) - 1
    depth_cap = max_depth if max_depth is not None else tables.size * group.exponent
    max_nodes = budget.max_nodes
    root_mask = allowed & ~forbidden_mask
    cut = None
    if symmetric:
        cut = _path_cut(tables.factors)
        root_mask &= cut[cut.full]
    roots = [g for g in range(root_mask.bit_length()) if root_mask >> g & 1]

    started = time.monotonic()
    deadline = started + budget.max_seconds
    accs = [acc_factory() for _ in roots]
    nodes = 0

    def run_one(index: int) -> int:
        g = roots[index]
        return _scan_from(tables, g, allowed >> g << g, forbidden_mask, depth_cap,
                          accs[index], max_nodes - nodes, deadline, cut)

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

    cpus = _usable_cpus() if hasattr(os, "fork") else [None]
    left = len(roots)
    while left and (nodes <= _FORK_GATE_NODES or min(len(cpus), left) < 2):
        left -= 1
        tally(run_one(left))
    if left:
        _run_forked(cpus[:left], left, run_one, tally, accs)
    return accs, nodes


def _read(fd: int, n: int) -> bytes | None:
    """Exactly ``n`` bytes from ``fd``, or None if it ends first."""
    data = b""
    while len(data) < n and (chunk := os.read(fd, n - len(data))):
        data += chunk
    return data if len(data) == n else None


def _run_forked(cpus: list[int | None], count: int, run_one: Callable[[int], int],
                tally: Callable[[int], None], accs: list) -> None:
    """Run tasks ``0 .. count-1`` in one forked child per entry of ``cpus``,
    passing the nodes of each to ``tally`` as it reports.

    The children take task indices in ascending order, largest subtrees
    first, from one shared pipe (see ``_work``) that the parent keeps topped
    up to ``_TASK_WINDOW``; child w pins itself to ``cpus[w]``. The parent
    reads each result whole, its 8-byte length and then that many bytes; a
    pipe that ends first belongs to a child that has ended. It copies each
    returned accumulator's state into its own, re-raises the first worker
    exception or the first from ``tally``, and reaps every child. A task
    that no child reported is an error, never a partial result.
    """
    # imported here so that scans too small to fork do not pay for them
    import pickle
    import selectors
    import signal

    task_r, task_w = os.pipe()
    queued = 0

    def queue(n: int) -> None:
        # the pipe never holds more than _TASK_WINDOW indices, so this never blocks
        nonlocal queued, task_w
        stop = min(count, queued + n)
        os.write(task_w, b"".join(i.to_bytes(4, "little") for i in range(queued, stop)))
        queued = stop
        if queued == count:
            os.close(task_w)
            task_w = -1

    children: dict[int, int] = {}   # result pipe -> pid
    reported: set[int] = set()
    try:
        queue(_TASK_WINDOW)
        for cpu in cpus:
            res_r, res_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _work(task_r, res_w, run_one, accs, close=(res_r, task_w), cpu=cpu)
            os.close(res_w)
            children[res_r] = pid
        with selectors.DefaultSelector() as sel:
            for fd in children:
                sel.register(fd, selectors.EVENT_READ)
            while sel.get_map():
                for key, _ in sel.select():
                    head = _read(key.fd, 8)
                    body = head and _read(key.fd, int.from_bytes(head, "little"))
                    if body is None:
                        sel.unregister(key.fd)
                        continue
                    index, result = pickle.loads(body)
                    if isinstance(result, BaseException):
                        raise result
                    acc, task_nodes = result
                    _copy_state(accs[index], acc)
                    reported.add(index)
                    tally(task_nodes)
                    if task_w != -1:
                        queue(1)
        if len(reported) < count:
            missing = min(set(range(count)) - reported)
            raise InternalCheckError(
                f"a search worker process exited without reporting task {missing}")
    finally:
        for fd in (task_r, task_w):
            if fd != -1:
                os.close(fd)
        for fd, pid in children.items():
            if len(reported) < count:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)


def _work(task_r: int, res_w: int, run_one: Callable[[int], int], accs: list,
          close: tuple[int, int], cpu: int | None) -> None:
    """Body of a forked worker; leaves only through ``os._exit``.

    Reads 4-byte task indices from ``task_r`` until end of file and writes,
    length-prefixed and pickled, ``(index, (acc, nodes))`` per task or
    ``(index, exception)``, after which it stops. It only computes and
    writes to its pipe, so it needs no lock another thread could have held
    at the fork, and ``os._exit`` keeps it from flushing the parent's stdio
    buffers or running its exit handlers. ``close`` holds the parent's pipe
    ends the worker must not keep open (-1 for one already closed). It first
    pins itself to ``cpu``, if given; where that fails it runs unpinned.
    """
    status = 1
    try:
        if cpu is not None:
            try:
                os.sched_setaffinity(0, {cpu})
            except OSError:
                pass
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


def _subgroup_mask(group: AbelianGroup, d: int) -> int:
    """Bitmask of the ranks whose order divides d."""
    orders = _rank_lists(group.invariant_factors)[0]
    return sum(1 << r for r, order in enumerate(orders) if d % order == 0)


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


class _ExtremaAcc:
    """Longest path and path of largest cross number, in one walk.

    ``best_len``/``best`` is the first longest path entered and
    ``best_scaled``/``best_cross`` the first path whose cross number, scaled
    by exp(G) (the sum of ``weights``, see ``_cross_weights``), is largest:
    each the lexicographically least maximizer.
    """

    __slots__ = ("weights", "scaled", "best_len", "best", "best_scaled", "best_cross")

    def __init__(self, weights):
        self.weights = weights
        self.scaled = 0
        self.best_len = 0
        self.best: tuple[int, ...] | None = None
        self.best_scaled = 0
        self.best_cross: tuple[int, ...] | None = None

    def enter(self, path):
        scaled = self.scaled + self.weights[path[-1]]
        self.scaled = scaled
        if len(path) > self.best_len:
            self.best_len = len(path)
            self.best = tuple(path)
        if scaled > self.best_scaled:
            self.best_scaled = scaled
            self.best_cross = tuple(path)
        return True

    def leave(self, path):
        self.scaled -= self.weights[path[-1]]


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
    lexicographic order of the rank tuples at every worker count.
    """
    _exact_ints((exact_length,), "length", ValueError)
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


def zero_sumfree_extrema(group: AbelianGroup, budget: SearchBudget | None = None
                         ) -> tuple[int, GSequence, Fraction, GSequence]:
    """Exact d(G) and k(G) from one walk: (d, its witness, k, its witness).
    Each witness is the lexicographically least maximizer: ``max`` keeps the
    first root task that reaches the maximum."""
    weights = _cross_weights(group)
    accs, _ = run_scan(group, lambda: _ExtremaAcc(weights), budget=budget, symmetric=True)
    d_acc = max(accs, key=lambda acc: acc.best_len)
    k_acc = max(accs, key=lambda acc: acc.best_scaled)
    return (d_acc.best_len, GSequence.from_ranks(group, d_acc.best),
            Fraction(k_acc.best_scaled, group.exponent),
            GSequence.from_ranks(group, k_acc.best_cross))


def longest_avoiding(group: AbelianGroup, pair: DivisorPair,
                     budget: SearchBudget | None = None) -> tuple[int, GSequence]:
    """Longest sequence over G_d with no nonempty subsum in G_{d/d'}."""
    pair.validate_for(group)
    forbidden = _subgroup_mask(group, pair.quotient)
    allowed = _subgroup_mask(group, pair.d) & ~forbidden
    if not allowed:
        return 0, GSequence.empty(group)
    weights = _cross_weights(group)
    accs, _ = run_scan(group, lambda: _ExtremaAcc(weights), budget=budget, allowed=allowed,
                       forbidden_mask=forbidden, symmetric=True)
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
    accs, nodes = run_scan(group, lambda: _MinMaxOrderAcc(is_max, target),
                           budget=budget, max_depth=target, symmetric=symmetric)
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
    constant falls back to search when it has no closed form. Independent of
    (and cross-checked against) :func:`d_pair_bruteforce`, which never leaves
    the ambient group.
    """
    reduced = reduced_group(group, pair)
    if reduced is None:
        return 1
    return davenport_constant(reduced, budget)
