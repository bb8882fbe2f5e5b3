"""Finite abelian groups in invariant-factor form, with element arithmetic.

A group is described by its invariant factors n_1 | n_2 | ... | n_r (each
at least 2); elements are residue vectors with component-wise arithmetic.
Every element also has a canonical mixed-radix *rank* in [0, |G|) which is
used for ordering, hashing and dense table indexing throughout the package.
"""

from __future__ import annotations

import math
import re
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

from ._record import record
from .errors import InvalidGroupError, UndefinedHeightError, UnsupportedGroupError

# Constructors reject groups larger than this; keeps subsum tables dense.
CARDINALITY_CAP = 1_000_000


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; inputs are at most CARDINALITY_CAP."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _exact_ints(values: Iterable[int], what: str, error=InvalidGroupError) -> tuple[int, ...]:
    """``values`` as a tuple; a bool, float or str among them raises ``error``
    rather than being truncated or parsed."""
    values = tuple(values)
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise error(f"{what} {v!r} is not an integer")
    return values


@record(frozen=True)
class AbelianGroup:
    """A finite abelian group given by its invariant-factor chain.

    The constructor insists on an actual chain (each factor divides the
    next); use :func:`normalize_group` to canonicalize an arbitrary list of
    cyclic orders first.
    """

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        factors = _exact_ints(self.invariant_factors, "cyclic factor")
        object.__setattr__(self, "invariant_factors", factors)
        if not factors:
            raise InvalidGroupError("group needs at least one cyclic factor")
        for n in factors:
            if n < 2:
                raise InvalidGroupError(f"cyclic factor {n} is below 2")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise InvalidGroupError(
                    f"factors {factors} are not a divisibility chain "
                    f"({a} does not divide {b}); use normalize_group()")
        _check_cap(math.prod(factors))

    # -- global structure --------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @cached_property
    def cardinality(self) -> int:
        return math.prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1]

    @cached_property
    def _p_data(self) -> tuple[int, tuple[int, ...]] | None:
        primes = _factorize(self.cardinality)
        if len(primes) != 1:
            return None
        (p, _), = primes.items()
        exps = tuple(_factorize(n)[p] for n in self.invariant_factors)
        return p, exps

    @property
    def is_p_group(self) -> bool:
        return self._p_data is not None

    @property
    def p(self) -> int:
        """The prime p when this is a p-group."""
        if self._p_data is None:
            raise UnsupportedGroupError(f"{self} is not a p-group")
        return self._p_data[0]

    @property
    def p_exponents(self) -> tuple[int, ...]:
        """Exponents a_1 <= ... <= a_r with n_i = p^{a_i}, for p-groups."""
        if self._p_data is None:
            raise UnsupportedGroupError(f"{self} is not a p-group")
        return self._p_data[1]

    # -- elements ------------------------------------------------------------

    @property
    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def element(self, coords: Iterable[int]) -> "GroupElement":
        return GroupElement(self, tuple(coords))

    def element_of_rank(self, rank: int) -> "GroupElement":
        if not 0 <= rank < self.cardinality:
            raise ValueError(f"rank {rank} out of range for {self}")
        coords = []
        for n in self.invariant_factors:
            rank, a = divmod(rank, n)
            coords.append(a)
        return GroupElement(self, tuple(coords))

    def elements(self) -> Iterator["GroupElement"]:
        """All elements in ascending rank order."""
        for rank in range(self.cardinality):
            yield self.element_of_rank(rank)

    def primary_decomposition(self) -> tuple[int, ...]:
        """Prime powers nu_1 <= ... <= nu_s of the finest cyclic decomposition.

        This is the longest way to write the group as a direct sum of cyclic
        groups; the parts multiply to the cardinality.
        """
        parts = []
        for n in self.invariant_factors:
            for p, e in _factorize(n).items():
                parts.append(p ** e)
        return tuple(sorted(parts))

    def __str__(self) -> str:
        return "C" + "xC".join(str(n) for n in self.invariant_factors)


@record(frozen=True)
class GroupElement:
    """A residue vector in its group; coordinates are kept reduced."""

    group: AbelianGroup
    coords: tuple[int, ...]

    def __post_init__(self):
        factors = self.group.invariant_factors
        coords = _exact_ints(self.coords, "coordinate", ValueError)
        if len(coords) != len(factors):
            raise ValueError(
                f"coordinate vector of length {len(coords)} does not match "
                f"rank-{len(factors)} group {self.group}")
        object.__setattr__(self, "coords",
                           tuple(a % n for a, n in zip(coords, factors)))

    @cached_property
    def rank(self) -> int:
        """Mixed-radix index a_1 + n_1*(a_2 + n_2*(...)) in [0, |G|)."""
        r = 0
        for n, a in zip(reversed(self.group.invariant_factors), reversed(self.coords)):
            r = r * n + a
        return r

    @property
    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def _require_same_group(self, other: "GroupElement") -> None:
        if self.group != other.group:
            raise ValueError(f"elements of {self.group} and {other.group} do not mix")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._require_same_group(other)
        return GroupElement(self.group, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.group, tuple(-a for a in self.coords))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def __mul__(self, k: int) -> "GroupElement":
        if not isinstance(k, int):
            return NotImplemented
        return GroupElement(self.group, tuple(k * a for a in self.coords))

    __rmul__ = __mul__

    def order(self) -> int:
        """Least t >= 1 with t*g = 0; always divides the exponent."""
        return math.lcm(*(n // math.gcd(a, n)
                          for a, n in zip(self.coords, self.group.invariant_factors)))

    def height(self) -> int:
        """Largest p-power p^h with g in p^h G (p-groups, g != 0): p^h
        divides every coordinate, taken as an integer in [0, n_i).

        Undefined at 0, where the maximum does not exist.
        """
        p = self.group.p
        if self.is_zero:
            raise UndefinedHeightError("height of 0 is undefined")
        h = 1
        while all(a % (h * p) == 0 for a in self.coords):
            h *= p
        return h

    def __str__(self) -> str:
        if self.group.rank == 1:
            return str(self.coords[0])
        return "(" + ",".join(str(a) for a in self.coords) + ")"


# -- canonical construction --------------------------------------------------

def _check_cap(order: int) -> None:
    if order > CARDINALITY_CAP:
        raise InvalidGroupError(
            f"group of order {order} exceeds the desk-scale cap {CARDINALITY_CAP}")


def normalize_group(factors: Iterable[int]) -> AbelianGroup:
    """Canonicalize arbitrary cyclic orders into the invariant-factor chain.

    The input list is split into prime-power parts and recombined so that the
    result is isomorphic to the direct sum of the given cyclic groups, e.g.
    [4, 6] becomes (2, 12). Idempotent on lists that already form a chain.
    """
    factor_list = _exact_ints(factors, "cyclic factor")
    if not factor_list:
        raise InvalidGroupError("group needs at least one cyclic factor")
    for n in factor_list:
        if n < 2:
            raise InvalidGroupError(f"cyclic factor {n} is below 2")
    # before factorizing: trial division of a huge factor would take seconds
    _check_cap(math.prod(factor_list))
    by_prime: dict[int, list[int]] = {}
    for n in factor_list:
        for p, e in _factorize(n).items():
            by_prime.setdefault(p, []).append(e)
    for exps in by_prime.values():
        exps.sort(reverse=True)
    depth = max(len(exps) for exps in by_prime.values())
    chain = []
    for i in range(depth):
        n_i = 1
        for p, exps in by_prime.items():
            if i < len(exps):
                n_i *= p ** exps[i]
        chain.append(n_i)
    chain.reverse()
    return AbelianGroup(tuple(chain))


def parse_group_spec(text: str) -> AbelianGroup:
    """Parse "2,4" or "C2xC4" (whitespace ignored) into a normalized group."""
    s = "".join(text.split())
    if not s:
        raise ValueError("empty group spec")
    for i, ch in enumerate(s):
        if ch not in "0123456789,xXcC":
            raise ValueError(f"unexpected character {ch!r} at position {i} "
                             f"in group spec {text!r}")
    factors = []
    pos = 0
    for token in re.split(r"[,xX]", s):
        digits = token[1:] if token[:1] in ("C", "c") else token
        if not digits.isdigit():
            raise ValueError(f"expected a cyclic order at position {pos} "
                             f"in group spec {text!r}, got {token!r}")
        factors.append(int(digits))
        pos += len(token) + 1
    return normalize_group(factors)


# -- the subsum shift on rank bitmasks -----------------------------------------

class GroupTables:
    """The subsum shift of one group: ``translate`` on rank bitmasks, which
    ``sequences.subsums`` and the search read.

    A subsum bitmask is translated by an element g one nonzero coordinate c
    of g at a time: with stride s and modulus n of that coordinate, the bits
    whose coordinate is below n - c move up by c*s and the rest move down by
    (n - c)*s, a rotation inside every block of n*s ranks. The two masks
    selecting those bits are cached per (coordinate, shift) as they are
    first needed, so the cache holds at most 2*sum(n_i - 1) masks of |G|
    bits, i.e. at most sum(n_i - 1)*|G|/4 bytes; each element keeps a tuple
    of references to the steps of its nonzero coordinates.
    """

    __slots__ = ("factors", "size", "_rotations", "_steps")

    def __init__(self, factors: tuple[int, ...]):
        self.factors = factors
        self.size = math.prod(factors)
        self._rotations: dict[tuple[int, int], tuple[int, int, int, int]] = {}
        self._steps: dict[int, tuple[tuple[int, int, int, int], ...]] = {}

    def _rotation(self, i: int, c: int) -> tuple[int, int, int, int]:
        """(low, high, up, down) adding c to coordinate i of every rank."""
        key = (i, c)
        step = self._rotations.get(key)
        if step is None:
            n, s = self.factors[i], math.prod(self.factors[:i])
            block = n * s
            repunit = ((1 << self.size) - 1) // ((1 << block) - 1)
            up, down = c * s, (n - c) * s
            low = ((1 << down) - 1) * repunit
            high = (((1 << block) - 1) ^ ((1 << down) - 1)) * repunit
            step = self._rotations[key] = (low, high, up, down)
        return step

    def translate(self, mask: int, g: int) -> int:
        """Bitmask of {x + g : x in mask}."""
        steps = self._steps.get(g)
        if steps is None:
            steps, x = [], g
            for i, n in enumerate(self.factors):
                x, c = divmod(x, n)
                if c:
                    steps.append(self._rotation(i, c))
            steps = self._steps[g] = tuple(steps)
        for low, high, up, down in steps:
            mask = ((mask & low) << up) | ((mask & high) >> down)
        return mask


@lru_cache(maxsize=None)
def group_tables(factors: tuple[int, ...]) -> GroupTables:
    return GroupTables(factors)


def tables_for(group: AbelianGroup) -> GroupTables:
    return group_tables(group.invariant_factors)
