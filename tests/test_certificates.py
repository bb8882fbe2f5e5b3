from __future__ import annotations

import functools
import json
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from zerosum import (AbelianGroup, CertificateError, CheckReport, GSequence,
                     SearchBudget, certificates, cli, formulas, search, verifier)
from zerosum.certificates import (load_certificate, rational_to_json,
                                  sequence_to_json, verify_certificate,
                                  write_certificate)
from zerosum.cli import EXIT_COUNTEREXAMPLE, EXIT_INTERNAL, EXIT_USAGE, main

C24 = AbelianGroup((2, 4))
GOLDEN = Path(__file__).parent / "golden"


def gamma_cert(tmp_path, delta=1):
    out = tmp_path / f"gamma{delta}.json"
    code = main(["gamma", "--group", "2,4", "--delta", str(delta),
                 "--method", "both", "--out", str(out)])
    assert code == 0
    return out


class TestSerialization:
    """Rationals and sequences are written exactly; a certificate stating
    one inexactly is rejected by verify-cert."""

    def test_rational_round_trip(self):
        for value in (Fraction(5, 4), Fraction(0), Fraction(-3, 7), Fraction(4)):
            obj = rational_to_json(value)
            assert Fraction(obj["num"], obj["den"]) == value

    def test_rational_never_float(self, tmp_path):
        obj = rational_to_json(Fraction(1, 3))
        assert isinstance(obj["num"], int) and isinstance(obj["den"], int)
        assert_rejected(tmp_path, "invariants-both", "claims[1].value", 0.333)

    def test_sequence_round_trip(self):
        seq = GSequence.from_elements(C24, [(1, 0), (0, 1), (0, 1)])
        obj = sequence_to_json(seq)
        assert obj["length"] == 3
        assert GSequence.from_elements(C24, [entry["coords"] for entry in obj["elements"]
                                             for _ in range(entry["multiplicity"])]) == seq

    @pytest.mark.parametrize("multiplicity", [1.7, 1.0, True, "1", 0, 10**12])
    def test_sequence_multiplicity_must_be_a_positive_int(self, tmp_path, multiplicity):
        assert_rejected(tmp_path, "gamma-both", "claims[1].witness.elements[0].multiplicity",
                        multiplicity)

    def test_certificate_file_round_trip(self, tmp_path):
        path = gamma_cert(tmp_path)
        cert = load_certificate(path)
        assert cert["command"] == "gamma"
        assert cert["group"]["invariant_factors"] == [2, 4]
        # writing again is byte-identical
        again = tmp_path / "again.json"
        write_certificate(cert, again)
        assert again.read_bytes() == path.read_bytes()
        # the loaded certificate is the whole document, an unknown key included
        path.write_text(json.dumps({**cert, "extra": [1, 2]}))
        assert load_certificate(path) == json.loads(path.read_text())


class TestVerification:
    def test_verify_cert_reads_the_file_once(self, tmp_path, monkeypatch):
        path = gamma_cert(tmp_path)
        reads, read_json = [], certificates._read_json

        def counted(source):
            reads.append(source)
            return read_json(source)
        monkeypatch.setattr(certificates, "_read_json", counted)
        assert main(["verify-cert", "--in", str(path)]) == 0
        assert reads == [str(path)]

    def test_accepts_fresh_certificate(self, tmp_path):
        outcome = verify_certificate(gamma_cert(tmp_path))
        assert outcome.accepted
        assert outcome.claims_checked == 2
        assert outcome.failures == []

    def test_rejects_flipped_multiplicity(self, tmp_path):
        path = gamma_cert(tmp_path)
        obj = json.loads(path.read_text())
        witness = next(c for c in obj["claims"]
                       if c["kind"] == "gamma_exact")["witness"]
        witness["elements"][0]["multiplicity"] += 1
        mutated = tmp_path / "mutated.json"
        mutated.write_text(json.dumps(obj))
        outcome = verify_certificate(mutated)
        assert not outcome.accepted
        assert any("gamma_exact" in failure for failure in outcome.failures)

    def test_rejects_witness_with_zero_element(self, tmp_path):
        path = gamma_cert(tmp_path)
        obj = json.loads(path.read_text())
        witness = next(c for c in obj["claims"]
                       if c["kind"] == "gamma_exact")["witness"]
        witness["elements"][0]["coords"] = [0, 0]
        mutated = tmp_path / "zeroed.json"
        mutated.write_text(json.dumps(obj))
        outcome = verify_certificate(mutated)
        assert not outcome.accepted

    def test_rejects_claim_witness_mismatch(self, tmp_path):
        # claim gamma_1 = 0 with a valid count-1 witness: the witness does not
        # support the claimed minimum and the re-run search disagrees
        path = gamma_cert(tmp_path, delta=1)
        obj = json.loads(path.read_text())
        claim = next(c for c in obj["claims"] if c["kind"] == "gamma_exact")
        claim["value"] = 0
        mutated = tmp_path / "lowball.json"
        mutated.write_text(json.dumps(obj))
        outcome = verify_certificate(mutated)
        assert not outcome.accepted

    def test_rejects_tampered_formula_value(self, tmp_path):
        path = gamma_cert(tmp_path)
        for key, value in [("upper", 2), ("exact_formula", None)]:
            obj = json.loads(path.read_text())
            claim = next(c for c in obj["claims"] if c["kind"] == "gamma_bounds")
            assert claim[key] != value
            claim[key] = value
            mutated = tmp_path / "bounds.json"
            mutated.write_text(json.dumps(obj))
            outcome = verify_certificate(mutated)
            assert not outcome.accepted, key

    def test_check_claims_reverify(self, tmp_path):
        out = tmp_path / "check.json"
        assert main(["check", "--group", "2,4", "--name", "max-order",
                     "--out", str(out)]) == 0
        outcome = verify_certificate(out)
        assert outcome.accepted
        # tamper with the recorded node count
        obj = json.loads(out.read_text())
        obj["claims"][0]["nodes"] += 1
        bad = tmp_path / "badnodes.json"
        bad.write_text(json.dumps(obj))
        assert not verify_certificate(bad).accepted

    def test_rejects_tampered_check_parameters(self, tmp_path):
        out = tmp_path / "check.json"
        assert main(["check", "--group", "2,4", "--name", "cross-number",
                     "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        claim = obj["claims"][0]
        assert claim["parameters"] == {"threshold": 4}
        claim["parameters"]["threshold"] = 99
        bad = tmp_path / "badparams.json"
        bad.write_text(json.dumps(obj))
        outcome = verify_certificate(bad)
        assert not outcome.accepted
        assert any("parameters" in f for f in outcome.failures)

    def test_rejects_status_its_claims_do_not_imply(self, tmp_path):
        out = tmp_path / "check.json"
        assert main(["check", "--group", "2,6", "--name", "order-divisibility",
                     "--threshold", "1", "--out", str(out)]) == 1
        assert verify_certificate(out).accepted
        obj = json.loads(out.read_text())
        assert obj["status"] == obj["claims"][0]["verdict"] != "verified"
        obj["status"] = obj["results"]["verdict"] = "verified"
        bad = tmp_path / "badstatus.json"
        bad.write_text(json.dumps(obj))
        outcome = verify_certificate(bad)
        assert not outcome.accepted
        assert any("status" in f for f in outcome.failures)
        # a command without a check claim implies "ok"
        cert = json.loads(gamma_cert(tmp_path).read_text())
        cert["status"] = "verified"
        bad.write_text(json.dumps(cert))
        assert not verify_certificate(bad).accepted

    @pytest.mark.parametrize("section, key, value", [
        ("results", "verdict", "verified"), ("results", "nodes", 1),
        ("results", "counterexample", None), ("parameters", "threshold", 7),
        ("parameters", "name", "heights")])
    def test_rejects_check_results_and_parameters_off_the_claim(
            self, tmp_path, section, key, value):
        out = tmp_path / "check.json"
        assert main(["check", "--group", "2,6", "--name", "order-divisibility",
                     "--threshold", "1", "--out", str(out)]) == 1
        obj = json.loads(out.read_text())
        assert obj[section][key] != value
        obj[section][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        outcome = verify_certificate(bad)
        assert not outcome.accepted
        # a re-run that refuses its inputs names the input it refuses
        named = ("check heights does not take --threshold" if value == "heights"
                 else f"{section}.{key}")
        assert any(named in f for f in outcome.failures)

    def test_search_is_held_to_the_closed_form(self, tmp_path, monkeypatch):
        out = tmp_path / "search.json"
        assert main(["invariants", "--group", "3,3", "--method", "search",
                     "--out", str(out)]) == 0
        from zerosum import formulas
        monkeypatch.setattr(formulas, "davenport_p_group", lambda group: 5)
        assert main(["invariants", "--group", "3,3", "--method", "search"]) == EXIT_INTERNAL
        assert verify_certificate(out).failures == ["formula d(G) = 5 but search found 4"]

    def test_budget_exceeded_check_reverifies_at_its_node_budget(self, tmp_path):
        golden = GOLDEN / "check-budget-exceeded.json"
        assert verify_certificate(golden).accepted
        # an edited node budget, and a time budget, which no re-run reproduces
        for budget in ({"max_nodes": 6, "max_seconds": 300.0},
                       {"max_nodes": 100_000_000, "max_seconds": 1e-6}):
            obj = json.loads(golden.read_text())
            assert obj["claims"][0]["verdict"] == "budget-exceeded"
            obj["parameters"]["budget"] = budget
            bad = tmp_path / "budget.json"
            bad.write_text(json.dumps(obj))
            outcome = verify_certificate(bad)
            assert not outcome.accepted
            assert any("does not reproduce" in f for f in outcome.failures)


class TestVerificationCost:
    """What a re-verification searches: one walk for the d(G) and k(G)
    claims, none for a formula claim, and no expansion of a stored
    multiplicity, since stored claims are compared, never parsed."""

    def test_invariants_and_its_verification_walk_once(self, tmp_path, monkeypatch):
        from zerosum import search
        scans = []
        run_scan = search.run_scan

        def counting_run_scan(*args, **kwargs):
            scans.append(args[0])
            return run_scan(*args, **kwargs)

        monkeypatch.setattr(search, "run_scan", counting_run_scan)
        out = tmp_path / "both.json"
        assert main(["invariants", "--group", "3,3", "--method", "both",
                     "--out", str(out)]) == 0
        assert scans == [AbelianGroup((3, 3))]
        scans.clear()
        assert main(["verify-cert", "--in", str(out)]) == 0
        assert scans == [AbelianGroup((3, 3))]

    def test_formula_claim_reverifies_without_search(self, tmp_path):
        out = tmp_path / "formula.json"
        assert main(["invariants", "--group", "2,2,2,2,2,2", "--method", "formula",
                     "--out", str(out)]) == 0
        no_search = SearchBudget(max_nodes=1)
        assert verify_certificate(out, no_search).accepted
        obj = json.loads(out.read_text())
        claim = next(c for c in obj["claims"] if c["kind"] == "davenport")
        claim["value"] += 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        outcome = verify_certificate(bad, no_search)
        assert not outcome.accepted
        assert outcome.failures == ["claims[2].value (davenport) is 7, re-derived 6"]

    def test_formula_dpair_reverifies_without_search(self, tmp_path):
        # the reduction route only: C2xC2xC2 has a closed form
        out = tmp_path / "dpair.json"
        assert main(["dpair", "--group", "8,8,8", "--dprime", "2", "--d", "4",
                     "--method", "formula", "--out", str(out)]) == 0
        no_search = SearchBudget(max_nodes=1)
        assert verify_certificate(out, no_search).accepted
        obj = json.loads(out.read_text())
        obj["claims"][0]["value"] += 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        outcome = verify_certificate(bad, no_search)
        assert outcome.failures == ["claims[0].value (d_pair) is 5, re-derived 4"]

    def test_search_beyond_the_verifier_budget_is_a_rejection(self, tmp_path):
        out = tmp_path / "search.json"
        assert main(["invariants", "--group", "2,4", "--method", "search",
                     "--out", str(out)]) == 0
        assert main(["verify-cert", "--in", str(out), "--budget-nodes", "1"]) \
            == EXIT_COUNTEREXAMPLE

    def test_sequence_as_long_as_the_group_is_refused(self, tmp_path):
        # |C2xC4| = 8: no zero-sumfree sequence has 8 elements
        witness = {"length": 8, "elements": [{"coords": [0, 1], "multiplicity": 7},
                                             {"coords": [1, 0], "multiplicity": 1}]}
        assert_rejected(tmp_path, "gamma-both", "claims[1].witness", witness)

    def test_huge_multiplicity_is_refused_before_expansion(self, tmp_path):
        obj = json.loads((GOLDEN / "gamma-both.json").read_text())
        claim = next(c for c in obj["claims"] if c["kind"] == "gamma_exact")
        claim["witness"]["elements"][0]["multiplicity"] = 10**12
        started = time.monotonic()
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(obj))
        outcome = verify_certificate(bad)
        assert time.monotonic() - started < 0.5
        assert not outcome.accepted
        assert any("gamma_exact" in f for f in outcome.failures)


DELETE = object()
FORMULA_CLAIMS = [{"kind": "d_star", "value": 4},
                  {"kind": "k_star", "value": {"num": 4, "den": 3}}]


def edit(obj, path: str, value):
    """Set the JSON path ``path`` (e.g. "claims[2].witness.length") of
    ``obj`` to ``value``, or delete it when ``value`` is DELETE."""
    *keys, last = [int(key) if key.isdigit() else key
                   for key in re.findall(r"[^.\[\]]+", path)]
    for key in keys:
        obj = obj[key]
    if value is DELETE:
        del obj[last]
    else:
        obj[last] = value


@pytest.mark.parametrize("golden, path, value", [
    ("invariants-both", "claims", []),
    ("invariants-both", "claims", FORMULA_CLAIMS),
    ("invariants-both", "command", "frobnicate"),
    ("invariants-both", "group.input", "7"),
    ("invariants-both", "group.invariant_factors", [3.9, 3]),
    ("invariants-both", "claims[2].witness.elements[0].coords[0]", 1.2),
    ("invariants-both", "claims[2].value", 4.0),
    ("invariants-both", "results.cardinality", 10),
    ("invariants-both", "extra", 1),
    ("enumerate", "results.sequences[39]", DELETE),
    ("check-counterexample", "results.implementation_bug", True),
    ("check-counterexample", "results.details", {"bound": 1}),
    ("gamma-both", "results.search.value", 7),
    ("gamma-both", "parameters.delta", 3),
    ("gamma-both", "results.matches_upper", False),
    ("gamma-both", "claims[1]", DELETE),
    ("construct-gamma", "parameters.delta", 3),
    ("construct-gamma", "results.max_order_count", 0),
    ("gamma-both", "parameters.delta", 1.0),
    ("gamma-both", "parameters.delta", True),
    ("gamma-both", "parameters.delta", "1"),
    ("gamma-both", "parameters.extra", 1),
    ("check-budget-exceeded", "parameters.budget.max_nodes", 5.0),
])
def test_tampered_golden_certificate_is_rejected(tmp_path, golden, path, value):
    assert_rejected(tmp_path, golden, path, value)


def assert_rejected(tmp_path, golden: str, path: str, value) -> None:
    """verify-cert exits 1 on the golden certificate ``golden`` with the
    JSON path ``path`` set to ``value``."""
    obj = json.loads((GOLDEN / f"{golden}.json").read_text())
    edit(obj, path, value)
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(obj))
    assert main(["verify-cert", "--in", str(bad)]) == EXIT_COUNTEREXAMPLE


# each shape field of a golden certificate is set in turn to each of these
SHAPE_MUTANTS = [None, True, -1, 1.5, "x", [], {}, [1]]
PYTHON_ERROR_TEXT = ("unhashable", "not supported between", "object is not", "Traceback")


def shape_fields(obj: dict) -> list[str]:
    """The JSON paths of a certificate's shape: its command, each key of
    its group and parameters (and of the recorded budget), its status and
    each claim's kind."""
    return ["command", *(f"group.{key}" for key in obj["group"]),
            *(f"parameters.{key}" for key in obj["parameters"]),
            *(f"parameters.budget.{key}" for key in obj["parameters"].get("budget", ())),
            "status", *(f"claims[{i}].kind" for i in range(len(obj["claims"])))]


@pytest.mark.parametrize("golden", sorted(path.stem for path in GOLDEN.glob("*.json")))
def test_shape_mutants_are_refused_in_the_package_words(tmp_path, capsys, monkeypatch,
                                                        golden):
    """verify-cert exits 2 on a malformed shape and 1 on a refused input or
    a difference, and no Python exception text reaches its output. A
    recorded budget is no claim, so a valid one (max_seconds 1.5) passes."""
    # one parser serves every run: building it is most of a run's time
    monkeypatch.setattr(cli, "build_parser", functools.lru_cache(cli.build_parser))
    stored = (GOLDEN / f"{golden}.json").read_text()
    mutant = tmp_path / "mutant.json"
    for path in shape_fields(json.loads(stored)):
        for value in SHAPE_MUTANTS:
            obj = json.loads(stored)
            edit(obj, path, value)
            if obj == json.loads(stored):
                continue  # the field already holds the value
            mutant.write_text(json.dumps(obj))
            code = main(["verify-cert", "--in", str(mutant)])
            out, err = capsys.readouterr()
            valid_budget = path == "parameters.budget.max_seconds" and value == 1.5
            assert code in ((0,) if valid_budget else (1, 2)), (path, value, out, err)
            assert not any(text in out + err for text in PYTHON_ERROR_TEXT), (path, value)


@pytest.mark.parametrize("golden, path, value", [
    ("invariants-both", "parameters.method", ["both"]),
    ("gamma-both", "parameters.method", {"both": 1}),
    ("check-heights", "parameters.name", ["heights"]),
    ("check-heights", "parameters.name", {}),
    ("construct-dstar", "parameters.kind", ["dstar"]),
    ("invariants-both", "parameters.budget.max_seconds", None),
    ("gamma-both", "parameters.budget.max_seconds", "300"),
    ("enumerate", "parameters.budget.max_seconds", True),
    ("check-budget-exceeded", "parameters.budget.max_nodes", "5"),
    # each integer input is refused by the function that takes it
    ("dpair-search", "parameters.d_prime", "2"),
    ("dpair-search", "parameters.d", 4.0),
    ("gamma-both", "parameters.delta", True),
    ("construct-gamma", "parameters.delta", 1.0),
    ("enumerate", "parameters.length", "3"),
    ("check-counterexample", "parameters.threshold", 1.5),
    ("check-gamma-conjecture", "parameters.delta", [1]),
])
def test_refused_input_is_named(tmp_path, capsys, golden, path, value):
    assert_rejected(tmp_path, golden, path, value)
    assert f"FAILED {path.rpartition('.')[2]} " in capsys.readouterr().out


def test_rejection_names_the_first_differing_path(tmp_path):
    obj = json.loads((GOLDEN / "gamma-both.json").read_text())
    edit(obj, "results.search.value", 7)
    edit(obj, "parameters.delta", 3)
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(obj))
    # the re-run takes delta from the parameters, and claims come first
    assert verify_certificate(bad).failures == [
        "claims[0].delta (gamma_bounds) is 1, re-derived 3"]


def seq(group, *coords):
    return GSequence.from_elements(group, coords)


# golden certificate -> the command line that made it
GOLDEN_ARGV = {"invariants-both": "invariants --group 3,3 --method both",
               "gamma-both": "gamma --group 2,4 --delta 1 --method both",
               "dpair-search": "dpair --group 2,4 --dprime 2 --d 4 --method search",
               "check-counterexample": "check --group 2,6 --name order-divisibility"
                                       " --threshold 1"}


def assert_witness_refused(tmp_path, capsys, golden: str) -> None:
    """The golden's command exits 4 and writes no certificate, and
    verify-cert rejects the golden certificate."""
    out = tmp_path / "out.json"
    assert main([*GOLDEN_ARGV[golden].split(), "--out", str(out)]) == EXIT_INTERNAL
    assert "internal-consistency failure: " in capsys.readouterr().err
    assert not out.exists()
    assert main(["verify-cert", "--in", str(GOLDEN / f"{golden}.json")]) == EXIT_COUNTEREXAMPLE


# each fault keeps the claimed value and breaks the witness of one search
@pytest.mark.parametrize("golden, function, fault", [
    # a d witness with a zero subsum, (1,0) + (2,0)
    ("invariants-both", "zero_sumfree_extrema",
     lambda g, r: (r[0], seq(g, (1, 0), (2, 0), (0, 1), (0, 1)), *r[2:])),
    # a d witness of length 3, not d(G) = 4
    ("invariants-both", "zero_sumfree_extrema",
     lambda g, r: (r[0], seq(g, (1, 0), (0, 1), (0, 1)), *r[2:])),
    # a k witness with a zero subsum, (1,0) + (2,0)
    ("invariants-both", "zero_sumfree_extrema",
     lambda g, r: (*r[:3], seq(g, (1, 0), (2, 0), (0, 1), (0, 1)))),
    # a k witness of cross number 1/3, not k(G) = 4/3
    ("invariants-both", "zero_sumfree_extrema", lambda g, r: (*r[:3], seq(g, (1, 0)))),
    # a gamma witness with a zero subsum, (0,2) + (0,2)
    ("gamma-both", "gamma_exact", lambda g, r: (r[0], seq(g, (0, 2), (0, 2), (0, 1)))),
    # a gamma witness of length 2, not d(G) - delta = 3
    ("gamma-both", "gamma_exact", lambda g, r: (r[0], seq(g, (1, 0), (0, 1)))),
    # a gamma witness with 2 elements of maximal order, not 1
    ("gamma-both", "gamma_exact", lambda g, r: (r[0], seq(g, (1, 0), (0, 1), (0, 1)))),
    # a d-pair witness with the subsum (0,2) in G_2
    ("dpair-search", "longest_avoiding", lambda g, r: (2, seq(g, (0, 1), (0, 1)))),
    # a d-pair witness of length 0, not D - 1 = 1
    ("dpair-search", "longest_avoiding", lambda g, r: (r[0], GSequence.empty(g))),
])
def test_command_checks_the_witnesses_it_claims(tmp_path, capsys, monkeypatch,
                                                golden, function, fault):
    real = getattr(search, function)
    monkeypatch.setattr(search, function,
                        lambda group, *args: fault(group, real(group, *args)))
    assert_witness_refused(tmp_path, capsys, golden)


def test_dpair_witness_lies_in_g_d(tmp_path, capsys, monkeypatch):
    # D_(2,2) on C4: the witness (1) is zero-sumfree, of length 1, but of order 4
    monkeypatch.setattr(search, "longest_avoiding",
                        lambda group, pair, budget: (1, seq(group, (1,))))
    out = tmp_path / "out.json"
    assert main(["dpair", "--group", "4", "--dprime", "2", "--d", "2", "--method", "search",
                 "--out", str(out)]) == EXIT_INTERNAL
    assert "is not in G_d" in capsys.readouterr().err
    assert not out.exists()


def test_gamma_off_a_proved_upper_bound_is_refused(tmp_path, capsys, monkeypatch):
    # C4xC4 at delta = 0 has j0 = 1 and delta <= p - 2, so the heights
    # theorem gives gamma = d(G) = 6; 5 still lies in the bounds [5, 6]
    real = search.gamma_exact
    monkeypatch.setattr(search, "gamma_exact",
                        lambda group, delta, budget: (5, real(group, delta, budget)[1]))
    out = tmp_path / "out.json"
    assert main(["gamma", "--group", "4,4", "--delta", "0", "--out", str(out)]) == EXIT_INTERNAL
    assert "proved regime" in capsys.readouterr().err
    assert not out.exists()



# each fault makes one route disagree with the other, or with a proved bound
@pytest.mark.parametrize("argv, module, function, fault, message", [
    ("invariants --group 3,3 --method search", search, "zero_sumfree_extrema",
     lambda g, r: (3, seq(g, (1, 0), (0, 1), (0, 1)), *r[2:]),
     "search found d(G) = 3 below the d* lower bound"),
    ("invariants --group 3,3 --method search", search, "zero_sumfree_extrema",
     lambda g, r: (*r[:2], Fraction(1, 3), seq(g, (1, 0))),
     "search found k(G) = 1/3 below the k* lower bound"),
    ("invariants --group 3,3 --method search", formulas, "little_cross_p_group",
     lambda g, r: r + 1, "formula k(G) = 7/3 but search found 4/3"),
    ("dpair --group 2,4 --dprime 2 --d 4 --method both", search, "d_pair_value",
     lambda g, r: r + 1, "reduction route gives 3, brute force 2"),
    ("gamma --group 2,4 --delta 1 --method both", search, "gamma_exact",
     lambda g, r: (r[0] + 1, r[1]), "search value 2 escapes the proven bounds [1, 1]"),
    ("gamma --group 2,4 --delta 1 --method both", formulas, "gamma_exact_formula",
     lambda g, r: r + 1, "exact closed form gives 2 but search found 1"),
], ids=["d-below-d-star", "k-below-k-star", "formula-k", "reduction-route",
        "gamma-bounds", "gamma-closed-form"])
def test_routes_that_disagree_are_refused(tmp_path, capsys, monkeypatch,
                                          argv, module, function, fault, message):
    real = getattr(module, function)
    monkeypatch.setattr(module, function,
                        lambda group, *args: fault(group, real(group, *args)))
    out = tmp_path / "out.json"
    assert main([*argv.split(), "--out", str(out)]) == EXIT_INTERNAL
    assert capsys.readouterr().err == f"internal-consistency failure: {message}\n"
    assert not out.exists()


def test_check_counterexample_is_checked_like_a_witness(tmp_path, capsys, monkeypatch):
    real = verifier.check_order_divisibility

    def with_zero_subsum(group, **kwargs):
        report = real(group, **kwargs)
        return CheckReport(report.name, report.parameters, report.verdict,
                           seq(group, (1, 0), (1, 0)), report.nodes_visited,
                           report.implementation_bug, report.details)
    monkeypatch.setattr(verifier, "check_order_divisibility", with_zero_subsum)
    assert_witness_refused(tmp_path, capsys, "check-counterexample")


class TestSchemaValidation:
    def test_wrong_version(self, tmp_path):
        path = tmp_path / "v99.json"
        path.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(CertificateError):
            load_certificate(path)

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"schema_version": 1}))
        with pytest.raises(CertificateError):
            load_certificate(path)

    def test_parameters_and_results_must_be_objects(self, tmp_path):
        obj = json.loads(gamma_cert(tmp_path).read_text())
        for key in ("parameters", "results"):
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps({**obj, key: []}))
            with pytest.raises(CertificateError):
                load_certificate(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda obj: [obj], "certificate must be a JSON object"),
        (lambda obj: {**obj, "claims": {}}, "claims must be a list"),
    ], ids=["list", "claims-object"])
    def test_shape_is_refused(self, tmp_path, capsys, edit, message):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(edit(json.loads(gamma_cert(tmp_path).read_text()))))
        assert main(["verify-cert", "--in", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"certificate error: {message}\n"

    def test_not_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all")
        with pytest.raises(CertificateError):
            load_certificate(path)

    def test_nested_too_deeply_to_parse(self, tmp_path, capsys):
        # json.loads raises RecursionError, not JSONDecodeError, on this
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        with pytest.raises(CertificateError, match="not valid JSON"):
            load_certificate(path)
        assert main(["verify-cert", "--in", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("certificate error: not valid JSON: ")

    def test_unknown_claim_kind_rejected_not_crashed(self, tmp_path):
        path = gamma_cert(tmp_path)
        obj = json.loads(path.read_text())
        obj["claims"].append({"kind": "alchemy"})
        odd = tmp_path / "odd.json"
        odd.write_text(json.dumps(obj))
        outcome = verify_certificate(odd)
        assert not outcome.accepted
        assert any("alchemy" in f for f in outcome.failures)


class TestDeterminism:
    def test_certificate_bytes_ignore_worker_count(self, tmp_path, usable_cpus):
        usable_cpus(1)
        a = gamma_cert(tmp_path, delta=0)
        b_dir = tmp_path / "b"
        b_dir.mkdir()
        usable_cpus(8)
        b = gamma_cert(b_dir, delta=0)
        assert a.read_bytes() == b.read_bytes()

    def test_json_has_no_floats_for_exact_values(self, tmp_path):
        out = tmp_path / "inv.json"
        assert main(["invariants", "--group", "2,4", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())

        def no_exact_floats(node):
            if isinstance(node, dict):
                return all(no_exact_floats(v) for k, v in node.items()
                           if k != "max_seconds")
            if isinstance(node, list):
                return all(no_exact_floats(v) for v in node)
            return not isinstance(node, float)

        assert no_exact_floats(obj)
