"""Shared helpers: independent brute-force oracles and the standard group lists."""

from __future__ import annotations

import math
import os
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
def forked_scans(monkeypatch):
    """Make every scan with two or more root tasks fork its workers after
    its first in-process task, as if the machine had four usable CPUs.

    Yields the list that records each fork; on teardown, checks that no
    child process is left unreaped.
    """
    from zerosum import search
    if not hasattr(os, "fork"):
        pytest.skip("os.fork is not available")
    forks: list[int] = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(search, "_FORK_GATE_NODES", 0)
    monkeypatch.setattr(search, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(os, "fork", counting_fork)
    yield forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
