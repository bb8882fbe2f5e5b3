"""Explicit zero-sumfree sequence constructions attaining the known bounds.

Each builder checks its sequence and the length, cross number or max-order
count it promises with ``sequences.check_witness`` before returning. A
failure raises InternalCheckError loudly: these constructions are proven to
work, so it means a bug in this package.
"""

from __future__ import annotations

from .errors import InternalCheckError
from .formulas import _check_delta, d_star, davenport_p_group, gamma_upper, j0, k_star
from .groups import AbelianGroup, GroupElement, _factorize
from .sequences import GSequence, check_witness


def standard_basis(group: AbelianGroup) -> list[GroupElement]:
    """Indicator-vector basis e_1, ..., e_r with ord(e_i) = n_i."""
    r = group.rank
    return [group.element(tuple(1 if j == i else 0 for j in range(r)))
            for i in range(r)]


def _sequence_of(group: AbelianGroup,
                 parts: list[tuple[GroupElement, int]]) -> GSequence:
    ranks: list[int] = []
    for element, mult in parts:
        if mult < 0:
            raise InternalCheckError(f"negative multiplicity {mult} in construction")
        ranks.extend([element.rank] * mult)
    return GSequence.from_ranks(group, ranks)


def dstar_sequence(group: AbelianGroup) -> GSequence:
    """The basis power product prod e_i^{n_i - 1}: zero-sumfree of length d*(G)."""
    basis = standard_basis(group)
    seq = _sequence_of(group, [(e, n - 1) for e, n in
                               zip(basis, group.invariant_factors)])
    check_witness(seq, length=d_star(group))
    return seq


def kstar_sequence(group: AbelianGroup) -> GSequence:
    """Zero-sumfree sequence of cross number k*(G).

    Splits each basis element into generators of the prime-power parts of
    its cyclic factor: (n_i/q) * e_i has order q for each prime power q
    dividing n_i exactly, and contributes multiplicity q - 1.
    """
    basis = standard_basis(group)
    parts = []
    for e, n in zip(basis, group.invariant_factors):
        for p, exp in sorted(_factorize(n).items()):
            q = p ** exp
            parts.append(((n // q) * e, q - 1))
    seq = _sequence_of(group, parts)
    check_witness(seq, cross=k_star(group))
    return seq


def gamma_extremal_sequence(group: AbelianGroup, delta: int) -> GSequence:
    """Zero-sumfree sequence of length d(G) - delta with as few maximal-order
    elements as the constructive upper bound allows.

    Three regimes of delta swap cheap maximal-order generators for scaled
    ones; the returned sequence always has max-order count equal to
    gamma_upper(group, delta).
    """
    _check_delta(group, delta)
    d_g = davenport_p_group(group)
    p = group.p
    exps = group.p_exponents
    r, a_r = group.rank, exps[-1]
    first_max = j0(group)
    width1 = r - first_max + 1
    case1_end = width1 * (p - 1) * (p ** (a_r - 1) - 1)
    case2_end = width1 * (p - 1) * p ** (a_r - 1)
    basis = standard_basis(group)
    parts: list[tuple[GroupElement, int]] = []

    if delta < case1_end:
        unit = (p - 1) * (p ** (a_r - 1) - 1)
        delta1, delta2 = divmod(delta, unit)
        if not 0 <= delta1 <= r - first_max:
            raise InternalCheckError(f"case-1 split out of range on {group}, delta={delta}")
        for i in range(1, r - delta1):           # i in [1, r - delta1 - 1]
            parts.append((basis[i - 1], p ** exps[i - 1] - 1))
        for i in range(r - delta1, r):           # i in [r - delta1, r - 1]
            parts.append((basis[i - 1], p - 1))
            parts.append((p * basis[i - 1], p ** (exps[i - 1] - 1) - 1))
        carried = delta2 // (p - 1)
        parts.append((basis[r - 1], p ** a_r - 1 - delta2 - carried))
        parts.append((p * basis[r - 1], carried))
        seq = _sequence_of(group, [(e, m) for e, m in parts if m > 0])
    elif delta < case2_end:
        delta1, delta2 = divmod(delta - case1_end, p - 1)
        if not 0 <= delta1 <= r - first_max:
            raise InternalCheckError(f"case-2 split out of range on {group}, delta={delta}")
        for i in range(1, first_max):            # i in [1, j0 - 1]
            parts.append((basis[i - 1], p ** exps[i - 1] - 1))
        for i in range(first_max, r - delta1):   # i in [j0, r - delta1 - 1]
            parts.append((basis[i - 1], p - 1))
            parts.append((p * basis[i - 1], p ** (a_r - 1) - 1))
        for i in range(r - delta1, r):           # i in [r - delta1, r - 1]
            parts.append((p * basis[i - 1], p ** (a_r - 1) - 1))
        parts.append((basis[r - 1], p - 1 - delta2))
        parts.append((p * basis[r - 1], p ** (a_r - 1) - 1))
        seq = _sequence_of(group, [(e, m) for e, m in parts if m > 0])
    else:
        for i in range(1, first_max):
            parts.append((basis[i - 1], p ** exps[i - 1] - 1))
        for i in range(first_max, r + 1):        # i in [j0, r]
            parts.append((p * basis[i - 1], p ** (a_r - 1) - 1))
        base = _sequence_of(group, [(e, m) for e, m in parts if m > 0])
        # any length-(d - delta) sub-multiset works; keep the lowest-ranked
        # occurrences of the canonical form for determinism
        kept: list[int] = []
        for rank, mult in base.entries:
            take = min(mult, d_g - delta - len(kept))
            kept.extend([rank] * take)
            if len(kept) == d_g - delta:
                break
        seq = GSequence.from_ranks(group, kept)

    check_witness(seq, length=d_g - delta, max_order=gamma_upper(group, delta))
    return seq
