"""Acceptance suite: one test per criterion, each printed as a pass line.

All arithmetic is integer/rational, so every comparison below is exact
(zero tolerance). Run with ``pytest tests/test_acceptance.py -v -s`` to see
the per-criterion lines and values.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from fractions import Fraction


from zerosum import (AbelianGroup, GSequence, check_corollary_max_order,
                     check_cross_number_conjecture, check_dual_conjecture,
                     check_gamma_conjecture, check_heights,
                     check_order_divisibility, d_pair_bruteforce, d_pair_value,
                     definitional_subsums, divisor_pairs, enumerate_zero_sumfree,
                     gamma_exact, gamma_extremal_sequence, gamma_lower,
                     gamma_upper, max_order_count, subsums, verify_certificate,
                     zero_sumfree_extrema)
from zerosum.sequences import check_witness, cross_number
from zerosum.cli import main
from conftest import P_GROUP_FACTORS, zero_sumfree_by_definition

C1_GROUPS = [AbelianGroup(f) for f in P_GROUP_FACTORS]
C3_FACTORS = [(2, 4), (4, 4), (8,), (9,), (2, 8), (2, 2, 4), (6,), (2, 6)]
C5_FACTORS = [(2,), (3,), (4,), (5,), (7,), (8,), (9,), (2, 4), (2, 8), (2, 2, 4)]
C8_FACTORS = [(2, 4), (3, 3), (2, 2, 4)]
C9_FACTORS = [(2, 4), (2, 8), (9,), (2, 2, 4)]
C10_FACTORS = P_GROUP_FACTORS + [(6,), (10,), (12,), (2, 6)]


def d_of(group: AbelianGroup) -> int:
    p = group.p
    return sum(p ** a - 1 for a in group.p_exponents)


def announce(number: int, message: str) -> None:
    print(f"ACCEPTANCE CRITERION {number:2d} PASS: {message}")


def test_criterion_01_davenport_formula():
    start = time.monotonic()
    for group in C1_GROUPS:
        expected = d_of(group)
        found, witness = zero_sumfree_extrema(group)[:2]
        assert found == expected, f"{group}: search {found} != formula {expected}"
        check_witness(witness)
        assert len(witness) == found
    elapsed = time.monotonic() - start
    assert elapsed < 120
    announce(1, f"d(G) = sum(p^a_i - 1) on all {len(C1_GROUPS)} groups "
                f"({elapsed:.2f}s < 120s)")


def test_criterion_02_cross_number_formula():
    start = time.monotonic()
    for group in C1_GROUPS:
        p = group.p
        expected = sum(Fraction(p ** a - 1, p ** a) for a in group.p_exponents)
        found, witness = zero_sumfree_extrema(group)[2:]
        assert found == expected, f"{group}: search {found} != formula {expected}"
        check_witness(witness)
        assert cross_number(witness) == found
    elapsed = time.monotonic() - start
    assert elapsed < 300
    announce(2, f"k(G) = sum((p^a_i - 1)/p^a_i) on all {len(C1_GROUPS)} groups "
                f"({elapsed:.2f}s < 300s)")


def test_criterion_03_d_pair_formula_vs_bruteforce():
    start = time.monotonic()
    checked = 0
    for factors in C3_FACTORS:
        group = AbelianGroup(factors)
        for pair in divisor_pairs(group):
            brute = d_pair_bruteforce(group, pair)
            via_reduction = d_pair_value(group, pair)
            assert brute == via_reduction, \
                f"{group} {pair}: brute {brute} != reduction {via_reduction}"
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300
    announce(3, f"D_(d',d) agreement on {checked} divisor pairs over "
                f"{len(C3_FACTORS)} groups ({elapsed:.2f}s < 300s)")


def test_criterion_04_gamma_sandwich():
    start = time.monotonic()
    checked = 0
    for group in C1_GROUPS:
        for delta in range(d_of(group)):
            lower = gamma_lower(group, delta)
            upper = gamma_upper(group, delta)
            exact, witness = gamma_exact(group, delta)
            assert lower <= exact <= upper, \
                f"{group} delta={delta}: {lower} <= {exact} <= {upper} fails"
            check_witness(witness)
            assert len(witness) == d_of(group) - delta
            assert max_order_count(witness) == exact
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 600
    announce(4, f"lower <= exact <= upper on {checked} (group, delta) pairs "
                f"({elapsed:.2f}s < 600s)")


def test_criterion_05_gamma_exact_value_when_top_factor_strict():
    checked = 0
    for factors in C5_FACTORS:
        group = AbelianGroup(factors)
        p = group.p
        a_r = group.p_exponents[-1]
        assert group.p_exponents.count(a_r) == 1 or group.rank == 1
        for delta in range(d_of(group)):
            expected = max(0, (p ** a_r - 1) - delta - delta // (p - 1))
            assert gamma_exact(group, delta)[0] == expected, \
                f"{group} delta={delta}"
            checked += 1
    announce(5, f"exact closed form matches search on {checked} "
                f"(group, delta) pairs with j0 = r")


def test_criterion_06_max_order_at_full_length():
    for group in C1_GROUPS:
        report = check_corollary_max_order(group)
        assert report.verdict == "verified", f"{group}: {report.verdict}"
        assert report.counterexample is None
    announce(6, f"every maximal zero-sumfree sequence has >= exp(G)-1 "
                f"maximal-order elements on all {len(C1_GROUPS)} groups")


def test_criterion_07_extremal_constructions():
    checked = 0
    for group in C1_GROUPS:
        for delta in range(d_of(group)):
            seq = gamma_extremal_sequence(group, delta)
            assert not subsums(seq).contains_zero            # (a) table check
            if len(seq) <= 12:
                assert zero_sumfree_by_definition(seq)       # (a) oracle
            assert len(seq) == d_of(group) - delta           # (b)
            assert max_order_count(seq) == gamma_upper(group, delta)  # (c)
            checked += 1
    announce(7, f"all {checked} extremal constructions verified "
                f"(zero-sumfree, length, max-order count)")


def test_criterion_08_height_sums_bounded():
    checked = 0
    for factors in C8_FACTORS:
        group = AbelianGroup(factors)
        d_g = d_of(group)
        for length in range(1, d_g + 1):
            hits: list[GSequence] = []
            enumerate_zero_sumfree(group, length, hits.append)
            for seq in hits:
                total = sum(g.height() for g in seq)
                assert total <= d_g, f"{group}: {seq} has height sum {total}"
                checked += 1
    announce(8, f"height sum <= d(G) over all {checked} zero-sumfree "
                f"sequences of the three groups; zero violations")


def test_criterion_09_heights_and_order_divisibility():
    for factors in C9_FACTORS:
        group = AbelianGroup(factors)
        assert check_heights(group).verdict == "verified", f"{group}"
        threshold = d_of(group) - group.p + 2
        report = check_order_divisibility(group, threshold)
        assert report.verdict == "verified", f"{group}"
    announce(9, f"height-1 and order-divisibility checks verified on "
                f"{len(C9_FACTORS)} groups")


def test_criterion_10_conjecture_checkers():
    for factors in C10_FACTORS:
        group = AbelianGroup(factors)
        assert check_cross_number_conjecture(group).verdict == "verified", \
            f"cross-number on {group}"
        assert check_dual_conjecture(group).verdict == "verified", \
            f"dual on {group}"
    gamma_values = {}
    assert check_gamma_conjecture(AbelianGroup((2, 2)), 0).verdict == "verified"
    for delta in (0, 1):
        assert check_gamma_conjecture(AbelianGroup((3, 3)), delta).verdict \
            == "verified"
    for delta in (0, 1, 2):
        report = check_gamma_conjecture(AbelianGroup((4, 4)), delta)
        exact = report.detail("exact")
        lower, upper = report.detail("lower"), report.detail("upper")
        assert lower <= exact <= upper
        gamma_values[delta] = (exact, report.verdict)
    cx0, _ = gamma_values[0]
    assert 5 <= cx0 <= 6
    announce(10, f"conjecture checkers verified on {len(C10_FACTORS)} groups; "
                 f"C4xC4 exact values by search: "
                 + ", ".join(f"delta={d}: {v[0]} ({v[1]})"
                             for d, v in sorted(gamma_values.items())))


def test_criterion_11_subsum_table_vs_definitional():
    rng = random.Random(20260809)
    factor_choices = P_GROUP_FACTORS
    mismatches = 0
    for _ in range(1000):
        group = AbelianGroup(rng.choice(factor_choices))
        length = rng.randint(0, 12)
        ranks = [rng.randrange(0, group.cardinality) for _ in range(length)]
        seq = GSequence.from_ranks(group, ranks)
        if set(subsums(seq).marked_ranks()) != definitional_subsums(seq):
            mismatches += 1
    assert mismatches == 0
    announce(11, "incremental subsum table equals definitional enumeration "
                 "on 1000 random sequences; zero mismatches")


def _emit_all_certificates(directory) -> list:
    """Re-run the CLI commands behind criteria 1-10 with --out set."""
    paths = []

    def run(name, argv):
        path = directory / f"{name}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + ["--out", str(path)])
        assert code == 0, f"{name}: exit {code}"
        paths.append(path)

    for i, group in enumerate(C1_GROUPS):
        spec = ",".join(map(str, group.invariant_factors))
        run(f"invariants-{i}", ["invariants", "--group", spec, "--method", "both"])
        for delta in range(d_of(group)):
            run(f"gamma-{i}-{delta}",
                ["gamma", "--group", spec, "--delta", str(delta),
                 "--method", "both"])
            run(f"construct-{i}-{delta}",
                ["construct", "--group", spec, "--kind", "gamma",
                 "--delta", str(delta)])
        run(f"check-maxorder-{i}", ["check", "--group", spec, "--name", "max-order"])
    for i, factors in enumerate(C3_FACTORS):
        spec = ",".join(map(str, factors))
        group = AbelianGroup(factors)
        for j, pair in enumerate(divisor_pairs(group)):
            run(f"dpair-{i}-{j}",
                ["dpair", "--group", spec, "--dprime", str(pair.d_prime),
                 "--d", str(pair.d), "--method", "both"])
    for i, factors in enumerate(C9_FACTORS):
        spec = ",".join(map(str, factors))
        run(f"check-heights-{i}", ["check", "--group", spec, "--name", "heights"])
        run(f"check-orderdiv-{i}",
            ["check", "--group", spec, "--name", "order-divisibility"])
    for i, factors in enumerate(C10_FACTORS):
        spec = ",".join(map(str, factors))
        run(f"check-cross-{i}", ["check", "--group", spec, "--name", "cross-number"])
        run(f"check-dual-{i}", ["check", "--group", spec, "--name", "davenport-dual"])
    for spec, deltas in [("2,2", (0,)), ("3,3", (0, 1)), ("4,4", (0, 1, 2))]:
        for delta in deltas:
            run(f"check-gammaconj-{spec.replace(',', 'x')}-{delta}",
                ["check", "--group", spec, "--name", "gamma-conjecture",
                 "--delta", str(delta)])
    for i, factors in enumerate(C8_FACTORS):
        spec = ",".join(map(str, factors))
        group = AbelianGroup(factors)
        for length in range(1, d_of(group) + 1):
            run(f"enumerate-{i}-{length}",
                ["enumerate", "--group", spec, "--length", str(length),
                 "--count-only"])
    return paths


def test_criterion_12_certificates_round_trip(tmp_path):
    paths = _emit_all_certificates(tmp_path)
    for path in paths:
        outcome = verify_certificate(path)
        assert outcome.accepted, f"{path.name}: {outcome.failures}"
    # mutation test: flip one multiplicity inside a witness
    target = next(p for p in paths if p.name.startswith("gamma-"))
    obj = json.loads(target.read_text())
    witness = next(c for c in obj["claims"] if c["kind"] == "gamma_exact")["witness"]
    witness["elements"][0]["multiplicity"] += 1
    mutated = tmp_path / "mutated.json"
    mutated.write_text(json.dumps(obj))
    assert not verify_certificate(mutated).accepted
    announce(12, f"{len(paths)} certificates emitted and independently "
                 f"re-verified; mutated witness rejected")


def test_criterion_13_parallel_determinism(tmp_path, usable_cpus):
    compared = 0

    def run_both(name, argv):
        nonlocal compared
        a = tmp_path / f"{name}-w1.json"
        b = tmp_path / f"{name}-w8.json"
        with contextlib.redirect_stdout(io.StringIO()):
            usable_cpus(1)
            assert main(argv + ["--out", str(a)]) == 0
            usable_cpus(8)
            assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), f"{name} differs across widths"
        compared += 1

    for i, group in enumerate(C1_GROUPS):
        spec = ",".join(map(str, group.invariant_factors))
        run_both(f"c1-{i}", ["invariants", "--group", spec, "--method", "both"])
        for delta in range(d_of(group)):
            run_both(f"c4-{i}-{delta}",
                     ["gamma", "--group", spec, "--delta", str(delta),
                      "--method", "both"])
    for i, factors in enumerate(C10_FACTORS):
        spec = ",".join(map(str, factors))
        run_both(f"c10c-{i}", ["check", "--group", spec, "--name", "cross-number"])
        run_both(f"c10d-{i}", ["check", "--group", spec, "--name", "davenport-dual"])
    announce(13, f"{compared} reports byte-identical at 1 and 8 usable CPUs")
