"""Machine-readable certificates and their independent re-verification.

A certificate records a command, its mathematical parameters, the claimed
values, and witness sequences. ``verify_certificate`` re-derives every claim
from scratch (formulas, sequence predicates, and fresh searches) and never
trusts a stored verdict. JSON is canonical: sorted keys, two-space indent,
rationals as num/den pairs, no floats for exact quantities.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from . import formulas, search, sequences, verifier
from ._record import record
from ._version import VERSION
from .errors import CertificateError, InternalCheckError
from .groups import AbelianGroup
from .sequences import GSequence

SCHEMA_VERSION = 1


# -- JSON helpers -------------------------------------------------------------

def rational_to_json(x: Fraction | int) -> dict:
    frac = Fraction(x)
    return {"num": frac.numerator, "den": frac.denominator}


def rational_from_json(obj) -> Fraction:
    if not isinstance(obj, dict) or set(obj) != {"num", "den"}:
        raise CertificateError(f"malformed rational {obj!r}")
    return Fraction(obj["num"], obj["den"])


def sequence_to_json(seq: GSequence) -> dict:
    return {
        "length": len(seq),
        "elements": [
            {"coords": list(seq.group.element_of_rank(rank).coords),
             "multiplicity": mult}
            for rank, mult in seq.entries
        ],
    }


def sequence_from_json(group: AbelianGroup, obj) -> GSequence:
    if not isinstance(obj, dict) or "elements" not in obj:
        raise CertificateError(f"malformed sequence {obj!r}")
    ranks = []
    for entry in obj["elements"]:
        element = group.element(entry["coords"])
        mult = int(entry["multiplicity"])
        if mult < 1:
            raise CertificateError(f"multiplicity {mult} below 1")
        ranks.extend([element.rank] * mult)
    return GSequence.from_ranks(group, ranks)


@record()
class Certificate:
    command: str
    group_input: str
    invariant_factors: tuple[int, ...]
    parameters: dict
    results: dict
    claims: list[dict]
    status: str
    timing: dict | None = None
    schema_version: int = SCHEMA_VERSION
    tool_version: str = VERSION

    @property
    def group(self) -> AbelianGroup:
        return AbelianGroup(tuple(self.invariant_factors))

    def to_json_obj(self) -> dict:
        obj = {
            "schema_version": self.schema_version,
            "tool": {"name": "zerosum", "version": self.tool_version},
            "command": self.command,
            "group": {"input": self.group_input,
                      "invariant_factors": list(self.invariant_factors)},
            "parameters": self.parameters,
            "results": self.results,
            "claims": self.claims,
            "status": self.status,
        }
        if self.timing is not None:
            obj["timing"] = self.timing
        return obj

    @classmethod
    def from_json_obj(cls, obj) -> "Certificate":
        if not isinstance(obj, dict):
            raise CertificateError("certificate must be a JSON object")
        if obj.get("schema_version") != SCHEMA_VERSION:
            raise CertificateError(
                f"unsupported schema version {obj.get('schema_version')!r}")
        required = {"command", "group", "parameters", "results", "claims", "status"}
        missing = required - set(obj)
        if missing:
            raise CertificateError(f"certificate misses keys {sorted(missing)}")
        group_obj = obj["group"]
        if (not isinstance(group_obj, dict)
                or not isinstance(group_obj.get("invariant_factors"), list)):
            raise CertificateError("malformed group record")
        if not isinstance(obj.get("tool", {}), dict):
            raise CertificateError("malformed tool record")
        if not isinstance(obj["claims"], list):
            raise CertificateError("claims must be a list")
        if not isinstance(obj["parameters"], dict) or not isinstance(obj["results"], dict):
            raise CertificateError("parameters and results must be objects")
        return cls(
            command=obj["command"],
            group_input=group_obj.get("input", ""),
            invariant_factors=tuple(group_obj["invariant_factors"]),
            parameters=obj["parameters"],
            results=obj["results"],
            claims=obj["claims"],
            status=obj["status"],
            timing=obj.get("timing"),
            tool_version=obj.get("tool", {}).get("version", VERSION),
        )


def certificate_json(cert: Certificate) -> str:
    return json.dumps(cert.to_json_obj(), sort_keys=True, indent=2) + "\n"


def write_certificate(cert: Certificate, path: str | Path) -> None:
    Path(path).write_text(certificate_json(cert), encoding="utf-8")


def load_certificate(path: str | Path) -> Certificate:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise CertificateError(f"not valid JSON: {err}") from err
    return Certificate.from_json_obj(obj)


# -- re-verification -----------------------------------------------------------

@record()
class VerificationOutcome:
    accepted: bool
    failures: list[str]
    claims_checked: int


def _check_witness_sequence(group: AbelianGroup, obj, kind: str,
                            value, params=()) -> GSequence:
    seq = sequence_from_json(group, obj)
    if "length" in obj and obj["length"] != len(seq):
        raise InternalCheckError(
            f"stored length {obj['length']} does not match elements ({len(seq)})")
    search.Witness(group, seq, kind, value, params).reverify()
    return seq


def check_claim(report: verifier.CheckReport) -> dict:
    """The certificate claim stating a check's report."""
    return {"kind": "check", "check": report.name,
            "parameters": dict(report.parameters),
            "verdict": report.verdict, "nodes": report.nodes_visited,
            "counterexample": None if report.counterexample is None
            else sequence_to_json(report.counterexample)}


def _verify_claim(cert: Certificate, group: AbelianGroup, claim: dict,
                  budget: search.SearchBudget | None) -> None:
    """Raise InternalCheckError (or a ValueError subclass) when a claim does
    not re-derive; return silently when it does. A check claim must also be
    what the certificate's ``results`` and ``parameters`` state."""
    kind = claim["kind"]
    if kind == "d_star":
        if formulas.d_star(group) != claim["value"]:
            raise InternalCheckError(f"d* recomputes to {formulas.d_star(group)}")
    elif kind == "k_star":
        got = formulas.k_star(group)
        if got != rational_from_json(claim["value"]):
            raise InternalCheckError(f"k* recomputes to {got}")
    elif kind == "davenport":
        value = claim["value"]
        found, _ = search.longest_zero_sumfree(group, budget)
        if found != value:
            raise InternalCheckError(f"search recomputes d(G) = {found}")
        if group.is_p_group and formulas.davenport_p_group(group) != value:
            raise InternalCheckError("closed form disagrees with claimed d(G)")
        if claim.get("witness") is not None:
            _check_witness_sequence(group, claim["witness"],
                                    "longest-zero-sumfree", value)
    elif kind == "little_cross":
        value = rational_from_json(claim["value"])
        found, _ = search.max_cross_number(group, budget)
        if found != value:
            raise InternalCheckError(f"search recomputes k(G) = {found}")
        if group.is_p_group and formulas.little_cross_p_group(group) != value:
            raise InternalCheckError("closed form disagrees with claimed k(G)")
        if claim.get("witness") is not None:
            _check_witness_sequence(group, claim["witness"], "max-cross", value)
    elif kind == "d_pair":
        pair = formulas.DivisorPair(claim["d_prime"], claim["d"])
        value = claim["value"]
        brute = search.d_pair_bruteforce(group, pair, budget)
        if brute != value:
            raise InternalCheckError(f"brute force recomputes {brute}")
        via_reduction = search.d_pair_value(group, pair, budget)
        if via_reduction != value:
            raise InternalCheckError(f"reduction route recomputes {via_reduction}")
        if claim.get("witness") is not None:
            _check_witness_sequence(
                group, claim["witness"], "d-pair", value,
                (("d", pair.d), ("d_prime", pair.d_prime)))
    elif kind == "gamma_bounds":
        bounds = formulas.gamma_bounds(group, claim["delta"])
        stored = (claim["lower"], claim["upper"], claim["raw_lower"], claim["raw_upper"])
        if stored != (bounds.lower, bounds.upper, bounds.raw_lower, bounds.raw_upper):
            raise InternalCheckError(f"bounds recompute to {bounds}")
        if claim.get("exact_formula") != bounds.exact:
            raise InternalCheckError(f"exact closed form recomputes to {bounds.exact}")
    elif kind == "gamma_exact":
        delta = claim["delta"]
        value = claim["value"]
        found, _ = search.gamma_exact(group, delta, budget)
        if found != value:
            raise InternalCheckError(f"search recomputes gamma = {found}")
        seq = _check_witness_sequence(group, claim["witness"], "gamma", value,
                                      (("delta", delta),))
        if len(seq) != formulas.davenport_p_group(group) - delta:
            raise InternalCheckError("witness length does not match d(G) - delta")
    elif kind == "construction":
        name = claim["construction"]
        seq = sequence_from_json(group, claim["sequence"])
        if not sequences.is_zero_sumfree(seq):
            raise InternalCheckError("stored sequence is not zero-sumfree")
        if len(seq) != claim["length"]:
            raise InternalCheckError("stored length disagrees with elements")
        if name == "dstar":
            if len(seq) != formulas.d_star(group):
                raise InternalCheckError("length is not d*(G)")
        elif name == "kstar":
            if sequences.cross_number(seq) != formulas.k_star(group):
                raise InternalCheckError("cross number is not k*(G)")
        elif name == "gamma":
            delta = claim["delta"]
            if len(seq) != formulas.davenport_p_group(group) - delta:
                raise InternalCheckError("length is not d(G) - delta")
            if sequences.max_order_count(seq) != formulas.gamma_upper(group, delta):
                raise InternalCheckError("max-order count is not the upper bound")
        else:
            raise InternalCheckError(f"unknown construction {name!r}")
    elif kind == "enumeration":
        count = search.enumerate_zero_sumfree(group, claim["length"], budget=budget)
        if count != claim["count"]:
            raise InternalCheckError(f"enumeration recounts {count}")
    elif kind == "check":
        name = cert.parameters.get("name")
        report_name, takes, _ = verifier.CHECKS.get(name, (None, {}, None))
        if report_name != claim["check"]:
            raise InternalCheckError(f"parameters.name {name!r} is not check {claim['check']!r}")
        exceeded = claim["verdict"] == "budget-exceeded"
        if exceeded:  # a node budget reproduces the verdict and the count
            base = budget or search.DEFAULT_BUDGET
            budget = search.SearchBudget(cert.parameters["budget"]["max_nodes"],
                                         base.max_seconds, base.parallel_width)
        report = verifier.run_check(name, group, claim["parameters"], budget)
        for key, value in check_claim(report).items():
            if claim.get(key) != value:
                raise InternalCheckError(f"checker {key} recomputes to {value!r}" + (
                    " at the recorded node budget: the claim does not reproduce"
                    " (a time budget is not reproducible)" if exceeded else ""))
            if key != "kind" and cert.results.get(key) != value:
                raise InternalCheckError(f"results.{key} is not the claim's {value!r}")
        implied = {"name": name, "budget": cert.parameters.get("budget"),
                   **{key: claim["parameters"][key] for key in takes}}
        if cert.parameters != implied:
            raise InternalCheckError(f"parameters are not the claim's {implied}")
    else:
        raise InternalCheckError(f"unknown claim kind {kind!r}")


def verify_certificate(source: Certificate | str | Path,
                       budget: search.SearchBudget | None = None) -> VerificationOutcome:
    """Re-derive every claim in the certificate from scratch.

    Formula claims re-evaluate the closed forms; search claims re-run the
    exhaustive search; witnesses are re-checked with fresh subsum tables (and
    the definitional enumeration when short). Stored verdicts are never
    trusted, and the status must be the one the claims imply: the verdict of
    the one check claim for ``check``, ``ok`` for every other command. A
    check's ``results`` and ``parameters`` must restate its claim, and a
    budget-exceeded check re-runs at the node budget it records.
    """
    cert = source if isinstance(source, Certificate) else load_certificate(source)
    group = cert.group
    failures: list[str] = []
    for i, claim in enumerate(cert.claims):
        if not isinstance(claim, dict) or "kind" not in claim:
            failures.append(f"claims[{i}]: malformed claim")
            continue
        try:
            _verify_claim(cert, group, claim, budget)
        except Exception as err:  # any failure rejects; the message names it
            failures.append(f"claims[{i}] ({claim.get('kind')}): {err}")
    implied = ["ok"]
    if cert.command == "check":
        implied = [claim.get("verdict") for claim in cert.claims
                   if isinstance(claim, dict) and claim.get("kind") == "check"]
    if implied != [cert.status]:
        failures.append(f"status {cert.status!r} is not the one the claims imply")
    return VerificationOutcome(accepted=not failures, failures=failures,
                               claims_checked=len(cert.claims))
