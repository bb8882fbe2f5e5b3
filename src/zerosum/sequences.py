"""Sequences (multisets) over a group, subsums, and cross numbers.

A sequence is an unordered multiset of group elements; the canonical form
lists distinct elements by ascending rank together with multiplicities.
Cross numbers are exact rationals (fractions.Fraction), never floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Literal

from ._record import record
from .errors import InternalCheckError
from .groups import AbelianGroup, GroupElement, _exact_ints, tables_for

FilterMode = Literal["divides", "equals"]


@record(frozen=True)
class GSequence:
    """Finite multiset of group elements in canonical (rank-sorted) form.

    ``entries`` maps element ranks to positive multiplicities, stored as a
    tuple of (rank, multiplicity) pairs with strictly increasing ranks.
    """

    group: AbelianGroup
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        entries = tuple((r, m) for r, m in self.entries)
        _exact_ints((x for entry in entries for x in entry), "sequence entry", ValueError)
        object.__setattr__(self, "entries", entries)
        size = self.group.cardinality
        last = -1
        for rank, mult in entries:
            if not 0 <= rank < size:
                raise ValueError(f"rank {rank} out of range for {self.group}")
            if rank <= last:
                raise ValueError("entries must have strictly increasing ranks")
            if mult < 1:
                raise ValueError(f"multiplicity {mult} below 1")
            last = rank

    # -- construction -------------------------------------------------------

    @classmethod
    def empty(cls, group: AbelianGroup) -> "GSequence":
        return cls(group, ())

    @classmethod
    def from_ranks(cls, group: AbelianGroup, ranks: Iterable[int]) -> "GSequence":
        counts: dict[int, int] = {}
        for r in ranks:
            counts[r] = counts.get(r, 0) + 1
        return cls(group, tuple(sorted(counts.items())))

    @classmethod
    def from_elements(cls, group: AbelianGroup,
                      elements: Iterable[GroupElement | Iterable[int]]) -> "GSequence":
        ranks = []
        for e in elements:
            if not isinstance(e, GroupElement):
                e = group.element(e)
            elif e.group != group:
                raise ValueError(f"element {e} does not belong to {group}")
            ranks.append(e.rank)
        return cls.from_ranks(group, ranks)

    # -- views ----------------------------------------------------------------

    @cached_property
    def length(self) -> int:
        return sum(m for _, m in self.entries)

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[GroupElement]:
        """Each occurrence once, ascending by rank."""
        for rank, mult in self.entries:
            e = self.group.element_of_rank(rank)
            for _ in range(mult):
                yield e

    def iter_ranks(self) -> Iterator[int]:
        for rank, mult in self.entries:
            for _ in range(mult):
                yield rank

    def __str__(self) -> str:
        if not self.entries:
            return "()"
        bits = []
        for rank, mult in self.entries:
            e = str(self.group.element_of_rank(rank))
            bits.append(e if mult == 1 else f"{e}^{mult}")
        return "*".join(bits)


@record(frozen=True)
class SubsumTable:
    """Dense membership map: bit k of ``mask`` is set iff the rank-k element
    is a sum over some nonempty sub-multiset of the source sequence."""

    group: AbelianGroup
    mask: int

    def __contains__(self, element: GroupElement | int) -> bool:
        rank = element.rank if isinstance(element, GroupElement) else element
        return bool((self.mask >> rank) & 1)

    @property
    def contains_zero(self) -> bool:
        return bool(self.mask & 1)

    @property
    def count(self) -> int:
        return self.mask.bit_count()

    def marked_ranks(self) -> list[int]:
        return [k for k in range(self.group.cardinality) if (self.mask >> k) & 1]


def subsums(seq: GSequence) -> SubsumTable:
    """All nonempty subsums of the sequence, computed incrementally.

    Start from the empty reachable set; merging one occurrence of g turns
    ``reachable`` into ``reachable | (reachable + g) | {g}``.
    """
    tables = tables_for(seq.group)
    mask = 0
    for rank in seq.iter_ranks():
        mask = mask | tables.translate(mask, rank) | (1 << rank)
    return SubsumTable(seq.group, mask)


def definitional_subsums(seq: GSequence) -> set[int]:
    """Ranks of all nonempty subsums, one addition per nonempty sub-multiset.

    Linear in their number, prod(m_i + 1) - 1 over the multiplicities; this
    is the independent slow route used to cross-check the incremental table,
    kept deliberately free of any shared machinery beyond element addition.
    """
    count = math.prod(m + 1 for _, m in seq.entries) - 1
    if count > 2 ** 22 - 1:
        raise ValueError(f"definitional enumeration over {count} sub-multisets refused")
    entries = [(seq.group.element_of_rank(r), m) for r, m in seq.entries]
    out = set()

    def extend(total: GroupElement, start: int) -> None:
        for i in range(start, len(entries)):
            s, (g, m) = total, entries[i]
            for _ in range(m):
                s = s + g
                out.add(s.rank)
                extend(s, i + 1)

    extend(seq.group.zero, 0)
    return out


def check_witness(seq: GSequence, forbidden_mask: int = 1, *, length: int | None = None,
                  cross: Fraction | None = None, max_order: int | None = None) -> None:
    """Check that ``seq`` has no nonempty subsum in ``forbidden_mask``, by
    default {0}, and each length, cross number and max-order count claimed.
    Its fresh subsum table is compared with the definitional enumeration
    when it has at most 4,095 nonempty sub-multisets. Never searches; raises
    InternalCheckError naming the check that failed."""
    table = subsums(seq)
    if (math.prod(m + 1 for _, m in seq.entries) - 1 <= 4095
            and set(table.marked_ranks()) != definitional_subsums(seq)):
        raise InternalCheckError(f"witness {seq}: incremental and definitional subsums disagree")
    if table.mask & forbidden_mask:
        raise InternalCheckError(f"witness {seq} is not zero-sumfree" if forbidden_mask == 1
                                 else f"witness {seq} has a subsum in the forbidden subgroup")
    for name, claimed, measure in (("length", length, len), ("cross number", cross, cross_number),
                                   ("max-order count", max_order, max_order_count)):
        if claimed is not None and measure(seq) != claimed:
            raise InternalCheckError(f"witness {seq} is not of {name} {claimed}")


def cross_number(seq: GSequence) -> Fraction:
    """Sum of reciprocal orders over all occurrences, as an exact rational."""
    total = Fraction(0)
    for rank, mult in seq.entries:
        total += Fraction(mult, seq.group.element_of_rank(rank).order())
    return total


def order_filter(seq: GSequence, d: int, mode: FilterMode) -> GSequence:
    """Sub-multiset of the elements whose order divides (or equals) d."""
    _exact_ints((d,), "order", ValueError)
    if d < 1 or seq.group.exponent % d != 0:
        raise ValueError(f"{d} does not divide the exponent {seq.group.exponent}")
    if mode not in ("divides", "equals"):
        raise ValueError(f"unknown filter mode {mode!r}")
    orders = [seq.group.element_of_rank(r).order() for r, _ in seq.entries]
    if mode == "divides":
        keep = [e for e, o in zip(seq.entries, orders) if d % o == 0]
    else:
        keep = [e for e, o in zip(seq.entries, orders) if o == d]
    return GSequence(seq.group, tuple(keep))


def max_order_count(seq: GSequence) -> int:
    """Number of occurrences whose order equals the group exponent."""
    return order_filter(seq, seq.group.exponent, "equals").length
