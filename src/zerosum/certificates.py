"""Machine-readable certificates and their independent re-verification.

Each claim kind is defined once, in ``CLAIMS``: how it reads from and writes
to JSON and how it re-derives from scratch. Each command's certificate is
defined once, by its render in ``COMMANDS``: ``parameters``, ``results``,
``status`` and text lines as functions of the claims. A command renders the
claims it computed; ``verify_certificate`` re-derives the claims and renders
them again. JSON is canonical: sorted keys, two-space indent, rationals as
num/den pairs, no floats for exact quantities.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from . import formulas, search, sequences, verifier
from ._record import record
from ._version import VERSION
from .errors import CertificateError, InternalCheckError
from .groups import AbelianGroup, parse_group_spec
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
        mult = entry["multiplicity"]
        if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
            raise CertificateError(f"multiplicity {mult!r} is not a positive integer")
        # every sequence a certificate holds is zero-sumfree, so shorter than |G|
        if len(ranks) + mult >= group.cardinality:
            raise CertificateError(f"{len(ranks) + mult} or more elements are never "
                                   f"zero-sumfree in a group of order {group.cardinality}")
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

    def to_json_obj(self) -> dict:
        # keys in the order they derive, which verify_certificate compares in
        obj = {
            "schema_version": self.schema_version,
            "tool": {"name": "zerosum", "version": self.tool_version},
            "command": self.command,
            "group": {"input": self.group_input,
                      "invariant_factors": list(self.invariant_factors)},
            "claims": self.claims,
            "status": self.status,
            "parameters": self.parameters,
            "results": self.results,
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


def _read_json(path: str | Path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise CertificateError(f"not valid JSON: {err}") from err


def load_certificate(path: str | Path) -> Certificate:
    return Certificate.from_json_obj(_read_json(path))


# -- claim kinds ----------------------------------------------------------------
#
# A claim is a dict of its kind and its fields as Python values (ints,
# Fractions, GSequences). A field codec is (read: group, JSON -> value,
# write: value -> JSON). Reading normalizes, so a stored 4.0, true or "4"
# reads as 4 and the rebuilt certificate no longer matches the stored one.

_INT = (lambda group, obj: int(obj), int)
_STR = (lambda group, obj: str(obj), str)
_RATIONAL = (lambda group, obj: rational_from_json(obj), rational_to_json)
_SEQUENCE = (sequence_from_json, sequence_to_json)
_INT_MAP = (lambda group, obj: {str(key): int(value) for key, value in obj.items()}, dict)


def _nullable(codec):
    read, write = codec
    return (lambda group, obj: None if obj is None else read(group, obj),
            lambda value: None if value is None else write(value))


def _fields(**codecs):
    """(from-JSON, to-JSON) of a claim kind with these fields; to-JSON leaves
    out the kind. A field the stored claim leaves out stays out; one it adds
    is dropped."""
    def from_json(group, obj):
        return {"kind": obj["kind"], **{name: read(group, obj[name])
                                        for name, (read, _) in codecs.items() if name in obj}}

    def to_json(claim):
        return {name: codecs[name][1](value) for name, value in claim.items() if name != "kind"}
    return from_json, to_json


def _same(got, claimed, what: str) -> None:
    if got != claimed:
        raise InternalCheckError(f"{what} recomputes to {got}")


def closed_forms(group: AbelianGroup) -> tuple[int | None, Fraction | None]:
    """d(G) and k(G) by closed form: both on a p-group, d(G) = n - 1 on a
    cyclic group of order n, neither otherwise."""
    if group.is_p_group:
        return formulas.davenport_p_group(group), formulas.little_cross_p_group(group)
    return (group.exponent - 1 if group.rank == 1 else None), None


def gamma_bounds_claim(group: AbelianGroup, delta: int) -> dict:
    bounds = formulas.gamma_bounds(group, delta)
    return {"kind": "gamma_bounds", "delta": delta, "lower": bounds.lower,
            "upper": bounds.upper, "raw_lower": bounds.raw_lower,
            "raw_upper": bounds.raw_upper, "exact_formula": bounds.exact}


def check_claim(report: verifier.CheckReport) -> dict:
    """The certificate claim stating a check's report."""
    return {"kind": "check", "check": report.name,
            "parameters": dict(report.parameters),
            "verdict": report.verdict, "nodes": report.nodes_visited,
            "counterexample": report.counterexample}


# A re-verify takes (group, claim, budget, certificate, derived), raises when
# the claim does not re-derive, and returns what the render needs beyond it.
# ``derived`` holds what the claims before it returned, and lives for one
# verify_certificate call.

def _reverify_extremum(index: int, witness_kind: str):
    """Re-verify d(G) (``index`` 0) or k(G) (1). A formula claim, which has
    no witness, re-evaluates its closed form only. A search claim re-runs the
    search, one walk for both claims of a certificate kept in ``derived``,
    compares the closed form where one exists and re-checks the witness."""
    def reverify(group, claim, budget, cert, derived):
        value, closed = claim["value"], closed_forms(group)[index]
        if claim["witness"] is None:
            _same(closed, value, "the closed form")
            return
        if "extrema" not in derived:
            derived["extrema"] = search.zero_sumfree_extrema(group, budget)
        _same(derived["extrema"][2 * index], value, "the search")
        if closed not in (None, value):
            raise InternalCheckError(f"closed form disagrees with the claimed {claim['kind']}")
        search.Witness(group, claim["witness"], witness_kind, value).reverify()
    return reverify


def _reverify_d_pair(group, claim, budget, cert, derived):
    pair = formulas.DivisorPair(claim["d_prime"], claim["d"])
    value = claim["value"]
    _same(search.d_pair_bruteforce(group, pair, budget), value, "brute force")
    _same(search.d_pair_value(group, pair, budget), value, "reduction route")
    if "witness" in claim:
        search.Witness(group, claim["witness"], "d-pair", value,
                       (("d", pair.d), ("d_prime", pair.d_prime))).reverify()


def _reverify_gamma_exact(group, claim, budget, cert, derived):
    delta, value = claim["delta"], claim["value"]
    _same(search.gamma_exact(group, delta, budget)[0], value, "search gamma")
    search.Witness(group, claim["witness"], "gamma", value, (("delta", delta),)).reverify()
    _same(formulas.davenport_p_group(group) - delta, len(claim["witness"]),
          "the witness length d(G) - delta")


def _reverify_construction(group, claim, budget, cert, derived):
    """The sequence is zero-sumfree and meets its construction's target:
    length d*(G), cross number k*(G), or length d(G) - delta with the gamma
    upper bound as max-order count."""
    name, seq = claim["construction"], claim["sequence"]
    if not sequences.is_zero_sumfree(seq):
        raise InternalCheckError("stored sequence is not zero-sumfree")
    _same(len(seq), claim["length"], "the stored length")
    if ("delta" in claim) != (name == "gamma"):
        raise InternalCheckError("a delta belongs to the gamma construction only")
    if name == "dstar":
        _same(formulas.d_star(group), len(seq), "the target length d*(G)")
    elif name == "kstar":
        _same(formulas.k_star(group), sequences.cross_number(seq), "the target k*(G)")
    elif name == "gamma":
        delta = claim["delta"]
        _same((formulas.davenport_p_group(group) - delta, formulas.gamma_upper(group, delta)),
              (len(seq), sequences.max_order_count(seq)),
              "the target (length, max-order count)")
    else:
        raise InternalCheckError(f"unknown construction {name!r}")


def _reverify_enumeration(group, claim, budget, cert, derived):
    # the sequences are collected only when the certificate lists them,
    # which it does unless the command ran with --count-only
    found = [] if "sequences" in cert.results else None
    count = search.enumerate_zero_sumfree(
        group, claim["length"], None if found is None else found.append, budget=budget)
    _same(count, claim["count"], "enumeration count")
    return found


def _reverify_check(group, claim, budget, cert, derived):
    """Re-run the check; a budget-exceeded one at the node budget it records."""
    name = cert.parameters.get("name")
    if verifier.CHECKS.get(name, (None,))[0] != claim["check"]:
        raise InternalCheckError(f"parameters.name {name!r} is not check {claim['check']!r}")
    exceeded = claim["verdict"] == "budget-exceeded"
    if exceeded:
        base = budget or search.DEFAULT_BUDGET
        budget = search.SearchBudget(cert.parameters["budget"]["max_nodes"],
                                     base.max_seconds, base.parallel_width)
    report = verifier.run_check(name, group, claim["parameters"], budget)
    for key, value in check_claim(report).items():
        if claim.get(key) != value:
            raise InternalCheckError(f"checker {key} recomputes to {value!r}" + (
                " at the recorded node budget: the claim does not reproduce"
                " (a time budget is not reproducible)" if exceeded else ""))
    return report


# claim kind -> (from-JSON, to-JSON, re-verify)
CLAIMS = {
    "d_star": (*_fields(value=_INT), lambda group, claim, *_: _same(
        formulas.d_star(group), claim["value"], "d*")),
    "k_star": (*_fields(value=_RATIONAL), lambda group, claim, *_: _same(
        formulas.k_star(group), claim["value"], "k*")),
    "davenport": (*_fields(value=_INT, witness=_nullable(_SEQUENCE)),
                  _reverify_extremum(0, "longest-zero-sumfree")),
    "little_cross": (*_fields(value=_RATIONAL, witness=_nullable(_SEQUENCE)),
                     _reverify_extremum(1, "max-cross")),
    "d_pair": (*_fields(d_prime=_INT, d=_INT, value=_INT, witness=_SEQUENCE),
               _reverify_d_pair),
    "gamma_bounds": (*_fields(delta=_INT, lower=_INT, upper=_INT, raw_lower=_INT,
                              raw_upper=_INT, exact_formula=_nullable(_INT)),
                     lambda group, claim, *_: _same(
                         gamma_bounds_claim(group, claim["delta"]), claim, "gamma bounds")),
    "gamma_exact": (*_fields(delta=_INT, value=_INT, witness=_SEQUENCE),
                    _reverify_gamma_exact),
    "construction": (*_fields(construction=_STR, sequence=_SEQUENCE, length=_INT,
                              delta=_INT), _reverify_construction),
    "enumeration": (*_fields(length=_INT, count=_INT), _reverify_enumeration),
    "check": (*_fields(check=_STR, parameters=_INT_MAP, verdict=_STR, nodes=_INT,
                       counterexample=_nullable(_SEQUENCE)), _reverify_check),
}


def claim_to_json(claim: dict) -> dict:
    return {"kind": claim["kind"], **CLAIMS[claim["kind"]][1](claim)}


# -- one render per command -------------------------------------------------------
#
# render(group, parameters, claims, derived) -> (parameters, results, status,
# text lines). ``parameters`` holds the inputs the claims do not state (the
# method, the check name); ``derived`` maps a claim kind to what its
# re-verify returned, or what the command computed in its place.

def _claims(claims: list[dict], *kinds: str) -> list[dict]:
    if [claim["kind"] for claim in claims] != list(kinds):
        raise CertificateError(f"the claims are not {', '.join(kinds) or 'none'}")
    return claims


# --method -> (whether the closed forms run, whether the search runs)
_METHODS = {"formula": (True, False), "search": (False, True), "both": (True, True)}


def _render_invariants(group, parameters, claims, derived):
    formula, searched = _METHODS[parameters["method"]]
    formula_d, formula_k = closed_forms(group)
    kinds = ["d_star", "k_star"]
    if searched:
        kinds += ["davenport", "little_cross"]
    elif formula_d is not None:
        kinds.append("davenport")
    d_star, k_star, *found = _claims(claims, *kinds)
    results = {
        "cardinality": group.cardinality,
        "exponent": group.exponent,
        "rank": group.rank,
        "invariant_factors": list(group.invariant_factors),
        "primary_decomposition": list(group.primary_decomposition()),
        "d_star": d_star["value"],
        "k_star": rational_to_json(k_star["value"]),
    }
    lines = [f"group {group} (invariant factors "
             f"{','.join(map(str, group.invariant_factors))})",
             f"  |G| = {group.cardinality}  exp(G) = {group.exponent}  "
             f"rank = {group.rank}",
             f"  primary decomposition: "
             f"{','.join(map(str, group.primary_decomposition()))}",
             f"  d*(G) = {d_star['value']}  k*(G) = {k_star['value']}"]
    if formula:
        davenport = None if formula_d is None else formula_d + 1
        results["formula"] = {
            "d": formula_d, "davenport": davenport,
            "k": None if formula_k is None else rational_to_json(formula_k)}
        lines.append(f"  formula: d(G) = {formula_d}  D(G) = {davenport}  "
                     f"k(G) = {formula_k}")
    if searched:
        d, k = found
        results["search"] = {
            "d": d["value"], "davenport": d["value"] + 1,
            "d_witness": sequence_to_json(d["witness"]),
            "k": rational_to_json(k["value"]),
            "k_witness": sequence_to_json(k["witness"]),
        }
        lines += [f"  search:  d(G) = {d['value']}  D(G) = {d['value'] + 1}  "
                  f"k(G) = {k['value']}",
                  f"    d witness: {d['witness']}",
                  f"    k witness: {k['witness']}"]
    return {"method": parameters["method"]}, results, "ok", lines


def _render_dpair(group, parameters, claims, derived):
    formula, searched = _METHODS[parameters["method"]]
    [claim] = _claims(claims, "d_pair")
    pair = formulas.DivisorPair(claim["d_prime"], claim["d"])
    upsilon = formulas.upsilon_vector(group, pair)
    reduced = formulas.reduced_group(group, pair)
    results = {
        "d_prime": pair.d_prime, "d": pair.d,
        "upsilon": list(upsilon),
        "reduced_factors": None if reduced is None else list(reduced.invariant_factors),
    }
    lines = [f"group {group}, d' = {pair.d_prime}, d = {pair.d}",
             f"  upsilon vector: ({','.join(map(str, upsilon))})",
             f"  reduced group: "
             f"{'trivial' if reduced is None else str(reduced)}"]
    if formula:
        results["formula_value"] = claim["value"]
        lines.append(f"  via reduction:  D_(d',d) = {claim['value']}")
    if searched:
        results["search_value"] = claim["value"]
        results["witness"] = sequence_to_json(claim["witness"])
        lines += [f"  by brute force: D_(d',d) = {claim['value']}",
                  f"    longest avoiding witness: {claim['witness']}"]
    parameters = {"method": parameters["method"], "d_prime": pair.d_prime, "d": pair.d}
    return parameters, results, "ok", lines


def _render_gamma(group, parameters, claims, derived):
    searched = _METHODS[parameters["method"]][1]
    bounds, *found = _claims(claims, "gamma_bounds", *(["gamma_exact"] if searched else []))
    delta = bounds["delta"]
    results = {
        "delta": delta,
        "j0": formulas.j0(group),
        "d": formulas.davenport_p_group(group),
        "bounds": {key: bounds[key] for key in ("lower", "upper", "raw_lower", "raw_upper")},
        "exact_formula": bounds["exact_formula"],
    }
    lines = [f"group {group}, delta = {delta} (j0 = {results['j0']}, "
             f"d(G) = {results['d']})",
             f"  lower bound {bounds['lower']} (raw {bounds['raw_lower']}), "
             f"upper bound {bounds['upper']} (raw {bounds['raw_upper']})"]
    if bounds["exact_formula"] is not None:
        lines.append(f"  exact closed form: {bounds['exact_formula']}")
    for exact in found:
        if exact["delta"] != delta:
            raise CertificateError("the gamma claims are for different deltas")
        results["search"] = {"value": exact["value"],
                             "witness": sequence_to_json(exact["witness"])}
        results["matches_upper"] = exact["value"] == bounds["upper"]
        lines += [f"  exhaustive value: {exact['value']}  "
                  f"(equals upper bound: {results['matches_upper']})",
                  f"    witness: {exact['witness']}"]
    return {"method": parameters["method"], "delta": delta}, results, "ok", lines


def _render_construct(group, parameters, claims, derived):
    [claim] = _claims(claims, "construction")
    kind, seq, delta = claim["construction"], claim["sequence"], claim.get("delta")
    cross = sequences.cross_number(seq)
    results = {**CLAIMS["construction"][1](claim), "cross_number": rational_to_json(cross),
               "max_order_count": sequences.max_order_count(seq), "zero_sumfree": True}
    lines = [f"group {group}, construction {kind}"
             + (f", delta = {delta}" if delta is not None else ""),
             f"  sequence: {seq}",
             f"  length {len(seq)}, cross number {cross}, "
             f"max-order count {results['max_order_count']}",
             "  zero-sumfree: verified"]
    return {"kind": kind, "delta": delta}, results, "ok", lines


def _render_enumerate(group, parameters, claims, derived):
    [claim] = _claims(claims, "enumeration")
    found = derived["enumeration"]  # None stands for --count-only
    results = CLAIMS["enumeration"][1](claim)
    if found is not None:
        results["sequences"] = [sequence_to_json(s) for s in found]
    lines = [f"group {group}: {claim['count']} zero-sumfree sequence(s) "
             f"of length {claim['length']}", *(f"  {s}" for s in found or ())]
    return {"length": claim["length"]}, results, "ok", lines


def _render_check(group, parameters, claims, derived):
    [claim] = _claims(claims, "check")
    report, name = derived["check"], parameters["name"]
    results = {**CLAIMS["check"][1](claim), "implementation_bug": report.implementation_bug,
               "details": {key: rational_to_json(value) if isinstance(value, Fraction)
                           else value for key, value in report.details}}
    lines = [f"group {group}, check {report.name} "
             f"{claim['parameters'] if claim['parameters'] else ''}".rstrip(),
             f"  verdict: {report.verdict}  (nodes visited: {report.nodes_visited})"]
    lines += [f"  {key}: {value}" for key, value in report.details]
    if report.counterexample is not None:
        lines.append(f"  counterexample: {report.counterexample}")
        if report.implementation_bug:
            lines.append("  note: this contradicts a proved statement; "
                         "suspect the implementation first")
    parameters = {"name": name, **{key: claim["parameters"][key]
                                   for key in verifier.CHECKS[name][1]}}
    return parameters, results, claim["verdict"], lines


# command -> (render, whether the command searches and records its budget)
COMMANDS = {
    "invariants": (_render_invariants, True),
    "dpair": (_render_dpair, True),
    "gamma": (_render_gamma, True),
    "construct": (_render_construct, False),
    "enumerate": (_render_enumerate, True),
    "check": (_render_check, True),
}


def render_certificate(command: str, group_input: str, group: AbelianGroup,
                       parameters: dict, claims: list[dict],
                       derived: dict) -> tuple[Certificate, list[str]]:
    """The certificate ``command`` makes of its claims, and its text lines.
    ``parameters`` holds the command's inputs, with the search budget."""
    if command not in COMMANDS:
        raise CertificateError(f"unknown command {command!r}")
    render, searches = COMMANDS[command]
    rendered, results, status, lines = render(group, parameters, claims, derived)
    if searches:
        budget = parameters["budget"]
        rendered["budget"] = {"max_nodes": int(budget["max_nodes"]),
                              "max_seconds": float(budget["max_seconds"])}
    return Certificate(command, group_input, group.invariant_factors, rendered, results,
                       [claim_to_json(claim) for claim in claims], status), lines


# -- re-verification -----------------------------------------------------------

@record()
class VerificationOutcome:
    accepted: bool
    failures: list[str]
    claims_checked: int


def _leaves(obj, path: str = "") -> dict[str, str]:
    """JSON path -> canonical JSON of each leaf (a scalar, [] or {}), in key order."""
    if isinstance(obj, dict) and obj:
        children = [(f"{path}.{key}" if path else key, child) for key, child in obj.items()]
    elif isinstance(obj, list) and obj:
        children = [(f"{path}[{i}]", child) for i, child in enumerate(obj)]
    else:
        return {path: json.dumps(obj)}
    return {leaf: text for where, child in children
            for leaf, text in _leaves(child, where).items()}


def _describe(err: Exception) -> str:
    return f"missing or unknown {err}" if isinstance(err, KeyError) else str(err)


def verify_certificate(source: Certificate | str | Path,
                       budget: search.SearchBudget | None = None) -> VerificationOutcome:
    """Re-derive every claim from scratch, then the whole certificate.

    Formula claims re-evaluate the closed forms, search claims re-run the
    search, witnesses are re-checked with fresh subsum tables, and a check
    re-runs (a budget-exceeded one at the node budget it records). The
    certificate is then rebuilt: the group from ``group.input``, each claim
    from its JSON read and written back, the rest by the command's render.
    It must equal the stored document but ``timing``, and the first JSON
    path where it does not is reported.
    """
    stored = (source.to_json_obj() if isinstance(source, Certificate)
              else _read_json(source))
    cert = Certificate.from_json_obj(stored)
    failures: list[str] = []
    try:
        group = parse_group_spec(cert.group_input)
        if group.invariant_factors != cert.invariant_factors:
            raise CertificateError(f"group.invariant_factors are not those of "
                                   f"group.input {cert.group_input!r}")
        claims, derived = [], {}
        for i, obj in enumerate(cert.claims):
            kind = obj.get("kind") if isinstance(obj, dict) else None
            try:
                if kind not in CLAIMS:
                    raise CertificateError(f"unknown claim kind {kind!r}")
                from_json, _, reverify = CLAIMS[kind]
                claims.append(from_json(group, obj))
                derived[kind] = reverify(group, claims[-1], budget, cert, derived)
            except Exception as err:  # any failure rejects; the message names it
                failures.append(f"claims[{i}] ({kind}): {_describe(err)}")
        if not failures:
            rebuilt, _ = render_certificate(cert.command, cert.group_input, group,
                                            cert.parameters, claims, derived)
            rebuilt.tool_version = cert.tool_version
            stored = {key: value for key, value in stored.items() if key != "timing"}
            rebuilt = rebuilt.to_json_obj()
            if json.dumps(rebuilt, sort_keys=True) != json.dumps(stored, sort_keys=True):
                want, have = _leaves(rebuilt), _leaves(stored)
                path = next(path for path in {**want, **have}
                            if want.get(path) != have.get(path))
                failures.append(f"{path} does not match the certificate re-derived "
                                f"from the claims")
    except Exception as err:
        failures.append(_describe(err))
    return VerificationOutcome(accepted=not failures, failures=failures,
                               claims_checked=len(cert.claims))
