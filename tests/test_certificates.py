from __future__ import annotations

import json
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from zerosum import AbelianGroup, CertificateError, GSequence, SearchBudget
from zerosum.certificates import (load_certificate, rational_from_json,
                                  rational_to_json, sequence_from_json,
                                  sequence_to_json, verify_certificate,
                                  write_certificate)
from zerosum.cli import EXIT_COUNTEREXAMPLE, main

C24 = AbelianGroup((2, 4))
GOLDEN = Path(__file__).parent / "golden"


def gamma_cert(tmp_path, delta=1, parallel=1):
    out = tmp_path / f"gamma{delta}.json"
    code = main(["gamma", "--group", "2,4", "--delta", str(delta),
                 "--method", "both", "--out", str(out), "--parallel", str(parallel)])
    assert code == 0
    return out


class TestSerialization:
    def test_rational_round_trip(self):
        for value in (Fraction(5, 4), Fraction(0), Fraction(-3, 7), Fraction(4)):
            assert rational_from_json(rational_to_json(value)) == value

    def test_rational_never_float(self):
        obj = rational_to_json(Fraction(1, 3))
        assert isinstance(obj["num"], int) and isinstance(obj["den"], int)
        with pytest.raises(CertificateError):
            rational_from_json(0.333)

    def test_sequence_round_trip(self):
        seq = GSequence.from_elements(C24, [(1, 0), (0, 1), (0, 1)])
        assert sequence_from_json(C24, sequence_to_json(seq)) == seq

    @pytest.mark.parametrize("multiplicity", [1.7, 1.0, True, "1", 0])
    def test_sequence_multiplicity_must_be_a_positive_int(self, multiplicity):
        obj = {"elements": [{"coords": [1, 0], "multiplicity": multiplicity}]}
        with pytest.raises(CertificateError):
            sequence_from_json(C24, obj)

    def test_certificate_file_round_trip(self, tmp_path):
        path = gamma_cert(tmp_path)
        cert = load_certificate(path)
        assert cert.command == "gamma"
        assert cert.invariant_factors == (2, 4)
        # writing again is byte-identical
        again = tmp_path / "again.json"
        write_certificate(cert, again)
        assert again.read_bytes() == path.read_bytes()


class TestVerification:
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
        assert any(section in f for f in outcome.failures)

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
    claims, none for a formula claim, and no expansion of a multiplicity a
    zero-sumfree sequence cannot have."""

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
        assert any("davenport" in f and "closed form" in f for f in outcome.failures)

    def test_sequence_as_long_as_the_group_is_refused(self):
        # |C2xC4| = 8: 7 elements may be read, 8 may not
        for mult, ok in ((7, True), (8, False)):
            obj = {"elements": [{"coords": [0, 1], "multiplicity": mult - 1},
                                {"coords": [1, 0], "multiplicity": 1}]}
            if ok:
                assert len(sequence_from_json(C24, obj)) == mult
            else:
                with pytest.raises(CertificateError, match="zero-sumfree"):
                    sequence_from_json(C24, obj)

    def test_huge_multiplicity_is_refused_before_expansion(self, tmp_path):
        obj = json.loads((GOLDEN / "gamma-both.json").read_text())
        claim = next(c for c in obj["claims"] if c["kind"] == "gamma_exact")
        claim["witness"]["elements"][0]["multiplicity"] = 10**12
        group = AbelianGroup(tuple(obj["group"]["invariant_factors"]))
        started = time.monotonic()
        with pytest.raises(CertificateError, match="zero-sumfree"):
            sequence_from_json(group, claim["witness"])
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
])
def test_tampered_golden_certificate_is_rejected(tmp_path, golden, path, value):
    obj = json.loads((GOLDEN / f"{golden}.json").read_text())
    edit(obj, path, value)
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(obj))
    assert main(["verify-cert", "--in", str(bad)]) == EXIT_COUNTEREXAMPLE


def test_rejection_names_the_first_differing_path(tmp_path):
    obj = json.loads((GOLDEN / "gamma-both.json").read_text())
    edit(obj, "results.search.value", 7)
    edit(obj, "parameters.delta", 3)
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(obj))
    # parameters derive before results, so they are compared first
    assert verify_certificate(bad).failures == [
        "parameters.delta does not match the certificate re-derived from the claims"]


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

    def test_not_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all")
        with pytest.raises(CertificateError):
            load_certificate(path)

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
    def test_certificate_bytes_ignore_parallel_width(self, tmp_path):
        a = gamma_cert(tmp_path, delta=0, parallel=1)
        b_dir = tmp_path / "b"
        b_dir.mkdir()
        b = gamma_cert(b_dir, delta=0, parallel=8)
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
