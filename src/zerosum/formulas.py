"""Closed-form evaluators for the zero-sum invariants.

Everything here is a pure function of the group data. Where a closed form
exists only for a restricted class (p-groups, cyclic groups), inputs outside
the class raise rather than silently approximating; exhaustive search (in
``search``) is the independent route and the fallback.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

from ._record import record
from .errors import NeedsOracleError, NotApplicableError, UnsupportedGroupError
from .groups import AbelianGroup, _exact_ints, normalize_group


@record(frozen=True)
class DivisorPair:
    """A pair d' | d of divisors of the exponent (validated against a group)."""

    d_prime: int
    d: int

    def __post_init__(self):
        _exact_ints((self.d_prime,), "d_prime", ValueError)
        _exact_ints((self.d,), "d", ValueError)
        if self.d_prime < 1 or self.d < 1:
            raise ValueError("d' and d must be at least 1")
        if self.d % self.d_prime != 0:
            raise ValueError(f"d'={self.d_prime} does not divide d={self.d}")

    def validate_for(self, group: AbelianGroup) -> None:
        if group.exponent % self.d != 0:
            raise ValueError(
                f"d={self.d} does not divide the exponent {group.exponent}")

    @property
    def quotient(self) -> int:
        return self.d // self.d_prime


def divisors(n: int) -> list[int]:
    return [k for k in range(1, n + 1) if n % k == 0]


def divisor_pairs(group: AbelianGroup) -> Iterator[DivisorPair]:
    """All pairs 1 <= d' | d | exp(G), ascending by (d, d')."""
    for d in divisors(group.exponent):
        for d_prime in divisors(d):
            yield DivisorPair(d_prime, d)


# -- elementary invariants ----------------------------------------------------

def d_star(group: AbelianGroup) -> int:
    """Sum of (n_i - 1) over the invariant factors; a lower bound for d(G)."""
    return sum(n - 1 for n in group.invariant_factors)


def k_star(group: AbelianGroup) -> Fraction:
    """Sum of (nu - 1)/nu over the finest cyclic decomposition; bounds k(G)."""
    return sum((Fraction(nu - 1, nu) for nu in group.primary_decomposition()),
               Fraction(0))


def davenport_p_group(group: AbelianGroup) -> int:
    """Longest zero-sumfree length d(G) of a p-group: sum of (p^{a_i} - 1)."""
    if not group.is_p_group:
        raise UnsupportedGroupError(
            f"{group} is not a p-group; the closed form does not apply")
    return d_star(group)


def little_cross_p_group(group: AbelianGroup) -> Fraction:
    """Maximal cross number k(G) of a p-group: sum of (p^{a_i}-1)/p^{a_i}."""
    if not group.is_p_group:
        raise UnsupportedGroupError(
            f"{group} is not a p-group; the closed form does not apply")
    return sum((Fraction(n - 1, n) for n in group.invariant_factors), Fraction(0))


def davenport_closed_form(group: AbelianGroup) -> int:
    """Davenport constant D(G) where a closed form is known.

    Covers p-groups (d*(G) + 1) and cyclic groups (the classical value n).
    Anything else raises NeedsOracleError so callers can switch to search.
    """
    if group.is_p_group:
        return davenport_p_group(group) + 1
    if group.rank == 1:
        return group.invariant_factors[0]
    raise NeedsOracleError(
        f"no closed-form Davenport constant for {group}; use the search oracle")


# -- the two-level Davenport constant ------------------------------------------

def upsilon_vector(group: AbelianGroup, pair: DivisorPair) -> tuple[int, ...]:
    """Cyclic orders of the reduced group attached to a divisor pair.

    With A_i = gcd(d', n_i) and B_i = lcm(d, n_i)/lcm(d', n_i), the i-th
    entry is A_i / gcd(A_i, B_i). Whenever d divides n_i this equals d';
    in particular the last entry always does.
    """
    pair.validate_for(group)
    out = []
    for n in group.invariant_factors:
        a = math.gcd(pair.d_prime, n)
        b = math.lcm(pair.d, n) // math.lcm(pair.d_prime, n)
        out.append(a // math.gcd(a, b))
    return tuple(out)


def reduced_group(group: AbelianGroup, pair: DivisorPair) -> AbelianGroup | None:
    """Group spanned by the nontrivial upsilon entries; None when all are 1."""
    nontrivial = [u for u in upsilon_vector(group, pair) if u > 1]
    if not nontrivial:
        return None
    return normalize_group(nontrivial)


def j0(group: AbelianGroup) -> int:
    """1-based index of the first invariant factor that equals the exponent."""
    if not group.is_p_group:
        raise UnsupportedGroupError(f"{group} is not a p-group")
    exps = group.p_exponents
    return exps.index(exps[-1]) + 1


def _check_delta(group: AbelianGroup, delta: int) -> None:
    _exact_ints((delta,), "delta", ValueError)
    top = davenport_p_group(group) - 1
    if not 0 <= delta <= top:
        raise ValueError(f"delta={delta} outside [0, {top}] for {group}")


def gamma_lower_raw(group: AbelianGroup, delta: int) -> int:
    """Unclamped lower bound for the minimal count of maximal-order elements
    in a zero-sumfree sequence of length at least d(G) - delta."""
    _check_delta(group, delta)
    p = group.p
    exps = group.p_exponents
    r, a_r = group.rank, exps[-1]
    width = r - j0(group)
    return ((p ** a_r - 1) + width * (p - 1) * p ** (a_r - 1)
            - delta - delta // ((width + 1) * (p - 1)))


def gamma_lower(group: AbelianGroup, delta: int) -> int:
    return max(0, gamma_lower_raw(group, delta))


def gamma_upper_raw(group: AbelianGroup, delta: int) -> int:
    """Unclamped constructive upper bound for the same quantity."""
    _check_delta(group, delta)
    p = group.p
    a_r = group.p_exponents[-1]
    width1 = group.rank - j0(group) + 1
    f = min(delta // (p - 1), width1 * (p ** (a_r - 1) - 1))
    return width1 * (p ** a_r - 1) - delta - f


def gamma_upper(group: AbelianGroup, delta: int) -> int:
    return max(0, gamma_upper_raw(group, delta))


def gamma_exact_formula(group: AbelianGroup, delta: int) -> int:
    """Exact value when the top invariant factor is strictly largest (j0 = r)."""
    _check_delta(group, delta)
    if j0(group) != group.rank:
        raise NotApplicableError(
            f"{group} has j0 < r; the exact closed form does not apply")
    p = group.p
    a_r = group.p_exponents[-1]
    return max(0, (p ** a_r - 1) - delta - delta // (p - 1))


def gamma_upper_is_exact(group: AbelianGroup, delta: int) -> bool:
    """True where the upper bound is proved exact: j0 = r (the closed form),
    or j0 = 1 and delta <= p - 2, where the heights theorem makes every
    element maximal-order (height 1 is maximal order in a homocyclic group)."""
    _check_delta(group, delta)
    first = j0(group)
    return first == group.rank or (first == 1 and delta <= group.p - 2)


@record(frozen=True)
class GammaBounds:
    """Clamped bounds (and exact value when available) with the raw,
    possibly negative, formula values kept inspectable."""

    delta: int
    lower: int
    upper: int
    raw_lower: int
    raw_upper: int
    exact: int | None = None


def gamma_bounds(group: AbelianGroup, delta: int) -> GammaBounds:
    raw_lo = gamma_lower_raw(group, delta)
    raw_hi = gamma_upper_raw(group, delta)
    exact = None
    if j0(group) == group.rank:
        exact = gamma_exact_formula(group, delta)
    return GammaBounds(delta=delta, lower=max(0, raw_lo), upper=max(0, raw_hi),
                       raw_lower=raw_lo, raw_upper=raw_hi, exact=exact)


def gamma_broken_rule(group: AbelianGroup, bounds: GammaBounds, value: int) -> str | None:
    """The message of the first rule a searched Gamma ``value`` breaks, or
    None. In order: within the proved bounds, equal to the exact closed
    form, and equal to the upper bound where that is proved exact."""
    if not bounds.lower <= value <= bounds.upper:
        return (f"search value {value} escapes the proven bounds "
                f"[{bounds.lower}, {bounds.upper}]")
    if bounds.exact not in (None, value):
        return f"exact closed form gives {bounds.exact} but search found {value}"
    if gamma_upper_is_exact(group, bounds.delta) and value != bounds.upper:
        return (f"search found {value}, but the proved regime (j0 = r, or "
                f"j0 = 1 and delta <= p - 2) has gamma = {bounds.upper}")
    return None
