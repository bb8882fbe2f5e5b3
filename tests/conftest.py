"""Shared helpers: independent brute-force oracles and the standard group lists."""

from __future__ import annotations

import math
import os
from functools import lru_cache
from itertools import product

import pytest

from zerosum import AbelianGroup, GroupElement, GSequence

# p-groups exercised throughout the acceptance runs
P_GROUP_FACTORS = [
    (2,), (3,), (4,), (5,), (8,), (9,),
    (2, 2), (2, 2, 2), (2, 2, 2, 2), (3, 3),
    (2, 4), (2, 8), (2, 2, 4), (4, 4),
]

NON_P_FACTORS = [(6,), (10,), (12,), (2, 6)]


@pytest.fixture(scope="session")
def p_groups() -> list[AbelianGroup]:
    return [AbelianGroup(f) for f in P_GROUP_FACTORS]


@pytest.fixture
def usable_cpus(monkeypatch):
    """The setter of the CPU count the search engine sees: after
    ``usable_cpus(w)`` it sees ``w`` CPUs, so a scan starts at most ``w``
    threads, as under ``taskset`` with ``w`` CPUs, and at ``w = 1`` it runs
    every task in the calling thread."""
    from zerosum import search

    def set_cpus(count: int) -> None:
        monkeypatch.setattr(search, "_usable_cpus", lambda: count)
    return set_cpus


@pytest.fixture
def python_kernel(monkeypatch):
    """Pin every scan to the Python kernel, ``search._scan_from``: the
    loader finds no compiled one. For the tests that hook that kernel or
    its accumulators' ``enter``."""
    from zerosum import _kernel
    monkeypatch.setattr(_kernel, "load", lambda: None)


@pytest.fixture
def compiled_kernel():
    """The compiled search kernel module; skips where it cannot be built."""
    from zerosum import _kernel
    module = _kernel.load()
    if module is None:
        pytest.skip("no compiled search kernel on this machine")
    return module


@pytest.fixture(params=["python", "compiled"])
def kernel(request, monkeypatch):
    """Run the test once on each search kernel; the compiled one is
    skipped where it cannot be built. Returns the compiled module, or
    None for the Python kernel."""
    from zerosum import _kernel
    module = request.getfixturevalue("compiled_kernel") if request.param == "compiled" else None
    monkeypatch.setattr(_kernel, "load", lambda: module)
    return module


@pytest.fixture
def threaded_scans(monkeypatch, usable_cpus):
    """Make every compiled scan with two or more root tasks start its
    threads after its first task, as if the machine had four usable CPUs;
    the Python kernel starts none.

    Yields the list of the threads that ran, each with ``cpus``, the CPUs
    it was allowed when it ended (None where that cannot be read); on
    teardown, checks that none is left alive.
    """
    import threading
    from zerosum import search
    threads: list[threading.Thread] = []
    real_run = threading.Thread.run

    def recording_run(thread):
        threads.append(thread)
        try:
            real_run(thread)
        finally:
            read = getattr(os, "sched_getaffinity", None)
            thread.cpus = frozenset(read(0)) if read else None

    monkeypatch.setattr(threading.Thread, "run", recording_run)
    monkeypatch.setattr(search, "_THREAD_GATE_NODES", 0)
    usable_cpus(4)
    yield threads
    assert not any(thread.is_alive() for thread in threads)


# -- independent oracles -------------------------------------------------------

def order_by_repeated_addition(g: GroupElement) -> int:
    acc = g
    t = 1
    while not acc.is_zero:
        acc = acc + g
        t += 1
    return t


def height_by_brute_force(group: AbelianGroup, g: GroupElement) -> int:
    """Max p^n over all n and all h in G with g = p^n * h, by full scan."""
    p = group.p
    best = None
    n = 0
    while p ** n <= group.cardinality:
        if any((p ** n) * h == g for h in group.elements()):
            best = p ** n
        n += 1
    assert best is not None
    return best


def order_multiset_of_raw_product(factors: tuple[int, ...]) -> list[int]:
    """Sorted element orders of the direct product of the given cyclic groups,
    modelled directly on coordinate tuples (no group machinery)."""
    orders = []
    for coords in product(*[range(n) for n in factors]):
        orders.append(math.lcm(*(n // math.gcd(a, n)
                                 for a, n in zip(coords, factors))))
    return sorted(orders)


def subsums_by_index_subsets(seq: GSequence) -> set[tuple[int, ...]]:
    """All nonempty subset sums as coordinate tuples, straight from the
    definition (independent of rank machinery)."""
    occurrences = list(seq)
    out = set()
    for mask in range(1, 1 << len(occurrences)):
        total = seq.group.zero
        for i, g in enumerate(occurrences):
            if (mask >> i) & 1:
                total = total + g
        out.add(total.coords)
    return out


def zero_sumfree_by_definition(seq: GSequence) -> bool:
    return all(any(c != 0 for c in coords)
               for coords in subsums_by_index_subsets(seq))


def all_zero_sumfree_multisets(group: AbelianGroup, length: int) -> set[tuple[int, ...]]:
    """Every canonical zero-sumfree multiset of the exact length, by filtering
    all nondecreasing rank tuples through the definitional predicate."""
    nonzero = range(1, group.cardinality)

    def extend(prefix: tuple[int, ...], lo: int):
        if len(prefix) == length:
            seq = GSequence.from_ranks(group, prefix)
            if zero_sumfree_by_definition(seq):
                yield prefix
            return
        for r in nonzero:
            if r >= lo:
                yield from extend(prefix + (r,), r)

    return set(extend((), 1))


@lru_cache(maxsize=None)
def _elements(group: AbelianGroup) -> tuple[GroupElement, ...]:
    return tuple(group.elements())


@lru_cache(maxsize=None)
def rank_map(group: AbelianGroup, g: int) -> tuple[int, ...]:
    """The rank of x + g for every rank x, by element addition."""
    h = group.element_of_rank(g)
    return tuple((x + h).rank for x in _elements(group))


def reference_scan(group: AbelianGroup, acc_factory, *, weights=None, allowed=None,
                   forbidden_mask: int = 1):
    """The search engine's earlier walk, kept as the reference for its DFS
    kernel; returns (one accumulator per allowed rank, total nodes) as
    ``run_scan`` does, in this process and without budgets. Each node is
    entered as ``(path, total)``, its total summed over the whole path from
    ``weights`` (all 0 by default), never carried from the parent, and it
    descends exactly when ``enter`` returns True. ``allowed`` (default:
    every rank outside ``forbidden_mask``) is the alphabet that the engine
    once took apart from the forbidden set; it is kept here as the oracle
    for the engine's one mask.

    A node keeps its subsum mask; the child for allowed[j] is tried when the
    mask misses pre[j], the ranks x with x + allowed[j] forbidden (-1 when
    allowed[j] itself is forbidden). Masks are shifted one rank at a time
    through ``rank_map``, not with the rotation translate.
    """
    size = group.cardinality
    if weights is None:
        weights = [0] * size
    if allowed is None:
        allowed = [r for r in range(size) if not (forbidden_mask >> r) & 1]
    pre = [-1 if (forbidden_mask >> h) & 1 else
           sum(1 << x for x, y in enumerate(rank_map(group, h)) if (forbidden_mask >> y) & 1)
           for h in allowed]

    def shift(mask: int, h: int) -> int:
        shifted, out = rank_map(group, h), 0
        while mask:
            low = mask & -mask
            out |= 1 << shifted[low.bit_length() - 1]
            mask ^= low
        return out

    def enter(acc, path: list[int]) -> bool:
        return acc.enter((path, sum(weights[x] for x in path)))

    def walk(acc, path: list[int], mask: int, first: int) -> int:
        nodes = 0
        for j in range(first, len(allowed)):
            if mask & pre[j]:
                continue
            h = allowed[j]
            nodes += 1
            path.append(h)
            if enter(acc, path):
                nodes += walk(acc, path, mask | shift(mask, h) | (1 << h), j)
            path.pop()
        return nodes

    accs, nodes = [], 0
    for i, g in enumerate(allowed):
        acc = acc_factory()
        accs.append(acc)
        if pre[i] == -1:
            continue
        nodes += 1
        path = [g]
        if enter(acc, path):
            nodes += walk(acc, path, 1 << g, i)
    return accs, nodes


@lru_cache(maxsize=None)
def automorphisms(group: AbelianGroup) -> tuple[tuple[int, ...], ...]:
    """Aut(G) listed as rank permutations: every choice of basis images v_i
    with n_i * v_i = 0 whose map on coordinate tuples, x -> sum x_i * v_i, is
    a bijection."""
    factors = group.invariant_factors
    # coordinate tuples in rank order: coordinate 0 varies fastest
    elements = [x[::-1] for x in product(*[range(n) for n in reversed(factors)])]

    def rank(coords):
        r = 0
        for n, a in zip(reversed(factors), reversed(coords)):
            r = r * n + a
        return r

    choices = [[v for v in elements if all(n * a % m == 0 for a, m in zip(v, factors))]
               for n in factors]
    listed = []
    for images in product(*choices):
        perm = tuple(rank([sum(a * v[k] for a, v in zip(x, images)) % m
                           for k, m in enumerate(factors)]) for x in elements)
        if len(set(perm)) == len(elements):
            listed.append(perm)
    return tuple(listed)


def aut_orbit_minima(group: AbelianGroup, fixing: tuple[int, ...] = ()) -> int:
    """Mask of the least rank of each orbit of the automorphisms that fix
    every rank in ``fixing`` (by default, of Aut(G)), by listing Aut(G)."""
    stabiliser = [phi for phi in automorphisms(group) if all(phi[r] == r for r in fixing)]
    minima, seen = 0, set()
    for x in range(group.cardinality):
        if x not in seen:
            minima |= 1 << x
            seen |= {phi[x] for phi in stabiliser}
    return minima


def elementary_map_by_coordinates(factors: tuple[int, ...],
                                  generator: tuple[int, int, int, int]) -> list[int]:
    """The rank of the image of every rank under ``generator`` (k, a, i, b),
    which makes coordinate k of x a*x_k + b*x_i mod n_k, one rank at a time:
    each rank is split into its coordinates, mapped and ranked again, the
    first coordinate least significant."""
    k, a, i, b = generator
    strides = [math.prod(factors[:j]) for j in range(len(factors))]
    images = []
    for r in range(math.prod(factors)):
        coords = [r // stride % n for stride, n in zip(strides, factors)]
        coords[k] = (a * coords[k] + b * coords[i]) % factors[k]
        images.append(sum(c * stride for c, stride in zip(coords, strides)))
    return images
