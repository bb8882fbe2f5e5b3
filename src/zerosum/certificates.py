"""Machine-readable certificates and their independent re-verification.

Each command is defined once, by its function in ``COMMANDS``: from the
group, the inputs and the search budget it computes the claims, makes every
cross-route consistency check, checks each witness it claims on the
checking route (``sequences.check_witness``), and builds ``parameters``,
``results``, ``status`` and its text lines. The CLI runs it with its flags
through ``run_command``. ``verify_certificate`` runs it again with the
inputs the stored ``parameters`` record and compares the two documents;
stored claims are compared, never parsed. A command function imports
``search``, ``verifier`` or ``constructions`` where its route runs them, so
a process loads only the modules of the route it takes.

A certificate is its JSON document, a dict: ``run_command`` returns it,
``load_certificate`` reads it from a file and checks its shape, and
``verify_certificate`` takes it or a path. JSON is canonical: sorted keys,
two-space indent, rationals as num/den pairs, no floats for exact
quantities.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from . import formulas, sequences
from ._budget import DEFAULT_BUDGET, SearchBudget
from ._record import record
from ._version import VERSION
from .errors import CertificateError, InternalCheckError, NeedsOracleError
from .groups import parse_group_spec
from .sequences import GSequence

SCHEMA_VERSION = 1


# -- JSON helpers -------------------------------------------------------------

def rational_to_json(x: Fraction | int) -> dict:
    frac = Fraction(x)
    return {"num": frac.numerator, "den": frac.denominator}


def sequence_to_json(seq: GSequence) -> dict:
    return {
        "length": len(seq),
        "elements": [
            {"coords": list(seq.group.element_of_rank(rank).coords),
             "multiplicity": mult}
            for rank, mult in seq.entries
        ],
    }


def certificate_json(cert: dict) -> str:
    return json.dumps(cert, sort_keys=True, indent=2) + "\n"


def write_certificate(cert: dict, path: str | Path) -> None:
    Path(path).write_text(certificate_json(cert), encoding="utf-8")


def _read_json(path: str | Path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise CertificateError(f"not valid JSON: {err}") from err


def _checked(obj) -> dict:
    """``obj`` if it has the shape of a certificate, else CertificateError."""
    if not isinstance(obj, dict):
        raise CertificateError("certificate must be a JSON object")
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise CertificateError(
            f"unsupported schema version {obj.get('schema_version')!r}")
    required = {"command", "group", "parameters", "results", "claims", "status"}
    missing = required - set(obj)
    if missing:
        raise CertificateError(f"certificate misses keys {sorted(missing)}")
    if not isinstance(obj["command"], str):
        raise CertificateError("command must be a string")
    group_obj = obj["group"]
    if (not isinstance(group_obj, dict) or not isinstance(group_obj.get("input"), str)
            or not isinstance(group_obj.get("invariant_factors"), list)):
        raise CertificateError("malformed group record")
    if not isinstance(obj.get("tool", {}), dict):
        raise CertificateError("malformed tool record")
    if not isinstance(obj["claims"], list):
        raise CertificateError("claims must be a list")
    if not isinstance(obj["parameters"], dict) or not isinstance(obj["results"], dict):
        raise CertificateError("parameters and results must be objects")
    return obj


def load_certificate(path: str | Path) -> dict:
    """The certificate's JSON document, once its shape is checked."""
    return _checked(_read_json(path))


# -- one function per command -------------------------------------------------------
#
# command(group, inputs, budget) -> (parameters, claims, results, status,
# text lines). ``inputs`` maps each input's name, a CLI flag's dest and a
# ``parameters`` key, to its value. ``parameters`` records the inputs a
# re-run needs, without the budget. Claims and results are JSON.

# --method -> (whether the closed forms run, whether the search runs)
_METHODS = {"formula": (True, False), "search": (False, True), "both": (True, True)}


def _invariants(group, inputs, budget):
    formula, searched = _METHODS[inputs["method"]]
    d_star, k_star = formulas.d_star(group), formulas.k_star(group)
    try:
        formula_d = formulas.davenport_closed_form(group) - 1
    except NeedsOracleError:
        formula_d = None
    formula_k = formulas.little_cross_p_group(group) if group.is_p_group else None
    claims = [{"kind": "d_star", "value": d_star},
              {"kind": "k_star", "value": rational_to_json(k_star)}]
    results = {
        "cardinality": group.cardinality,
        "exponent": group.exponent,
        "rank": group.rank,
        "invariant_factors": list(group.invariant_factors),
        "primary_decomposition": list(group.primary_decomposition()),
        "d_star": d_star,
        "k_star": rational_to_json(k_star),
    }
    lines = [f"group {group} (invariant factors "
             f"{','.join(map(str, group.invariant_factors))})",
             f"  |G| = {group.cardinality}  exp(G) = {group.exponent}  "
             f"rank = {group.rank}",
             f"  primary decomposition: "
             f"{','.join(map(str, group.primary_decomposition()))}",
             f"  d*(G) = {d_star}  k*(G) = {k_star}"]
    if formula:
        davenport = None if formula_d is None else formula_d + 1
        results["formula"] = {
            "d": formula_d, "davenport": davenport,
            "k": None if formula_k is None else rational_to_json(formula_k)}
        lines.append(f"  formula: d(G) = {formula_d}  D(G) = {davenport}  "
                     f"k(G) = {formula_k}")
    if not searched:
        if formula_d is not None:
            claims.append({"kind": "davenport", "value": formula_d, "witness": None})
        return {"method": inputs["method"]}, claims, results, "ok", lines
    from . import search
    d, d_seq, k, k_seq = search.zero_sumfree_extrema(group, budget)
    sequences.check_witness(d_seq, length=d)
    sequences.check_witness(k_seq, cross=k)
    if d < d_star:
        raise InternalCheckError(f"search found d(G) = {d} below the d* lower bound")
    if k < k_star:
        raise InternalCheckError(f"search found k(G) = {k} below the k* lower bound")
    if formula_d not in (None, d):
        raise InternalCheckError(f"formula d(G) = {formula_d} but search found {d}")
    if formula_k not in (None, k):
        raise InternalCheckError(f"formula k(G) = {formula_k} but search found {k}")
    claims += [{"kind": "davenport", "value": d, "witness": sequence_to_json(d_seq)},
               {"kind": "little_cross", "value": rational_to_json(k),
                "witness": sequence_to_json(k_seq)}]
    results["search"] = {"d": d, "davenport": d + 1, "d_witness": claims[-2]["witness"],
                         "k": rational_to_json(k), "k_witness": claims[-1]["witness"]}
    lines += [f"  search:  d(G) = {d}  D(G) = {d + 1}  k(G) = {k}",
              f"    d witness: {d_seq}",
              f"    k witness: {k_seq}"]
    return {"method": inputs["method"]}, claims, results, "ok", lines


def _dpair(group, inputs, budget):
    from . import search
    formula, searched = _METHODS[inputs["method"]]
    pair = formulas.DivisorPair(inputs["d_prime"], inputs["d"])
    pair.validate_for(group)
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
    claim = {"kind": "d_pair", "d_prime": pair.d_prime, "d": pair.d}
    if formula:
        claim["value"] = results["formula_value"] = search.d_pair_value(group, pair, budget)
        lines.append(f"  via reduction:  D_(d',d) = {claim['value']}")
    if searched:
        length, seq = search.longest_avoiding(group, pair, budget)
        if claim.get("value", length + 1) != length + 1:
            raise InternalCheckError(f"reduction route gives {claim['value']}, "
                                     f"brute force {length + 1}")
        if sequences.order_filter(seq, pair.d, "divides") != seq:
            raise InternalCheckError(f"witness {seq} is not in G_d for d = {pair.d}")
        sequences.check_witness(seq, sum(1 << e.rank for e in group.elements()
                                         if pair.quotient % e.order() == 0), length=length)
        claim["value"] = results["search_value"] = length + 1
        claim["witness"] = results["witness"] = sequence_to_json(seq)
        lines += [f"  by brute force: D_(d',d) = {length + 1}",
                  f"    longest avoiding witness: {seq}"]
    parameters = {"method": inputs["method"], "d_prime": pair.d_prime, "d": pair.d}
    return parameters, [claim], results, "ok", lines


def _gamma(group, inputs, budget):
    delta, searched = inputs["delta"], _METHODS[inputs["method"]][1]
    bounds = formulas.gamma_bounds(group, delta)
    claims = [{"kind": "gamma_bounds", "delta": delta, "lower": bounds.lower,
               "upper": bounds.upper, "raw_lower": bounds.raw_lower,
               "raw_upper": bounds.raw_upper, "exact_formula": bounds.exact}]
    results = {
        "delta": delta,
        "j0": formulas.j0(group),
        "d": formulas.davenport_p_group(group),
        "bounds": {key: claims[0][key] for key in ("lower", "upper", "raw_lower", "raw_upper")},
        "exact_formula": bounds.exact,
    }
    lines = [f"group {group}, delta = {delta} (j0 = {results['j0']}, "
             f"d(G) = {results['d']})",
             f"  lower bound {bounds.lower} (raw {bounds.raw_lower}), "
             f"upper bound {bounds.upper} (raw {bounds.raw_upper})"]
    if bounds.exact is not None:
        lines.append(f"  exact closed form: {bounds.exact}")
    if searched:
        from . import search
        exact, seq = search.gamma_exact(group, delta, budget)
        broken = formulas.gamma_broken_rule(group, bounds, exact)
        if broken is not None:
            raise InternalCheckError(broken)
        sequences.check_witness(seq, length=results["d"] - delta, max_order=exact)
        claims.append({"kind": "gamma_exact", "delta": delta, "value": exact,
                       "witness": sequence_to_json(seq)})
        results["search"] = {"value": exact, "witness": claims[-1]["witness"]}
        results["matches_upper"] = exact == bounds.upper
        lines += [f"  exhaustive value: {exact}  "
                  f"(equals upper bound: {results['matches_upper']})",
                  f"    witness: {seq}"]
    parameters = {"method": inputs["method"], "delta": delta}
    return parameters, claims, results, "ok", lines


def _construct(group, inputs, budget):
    """Each construction checks itself with ``sequences.check_witness``."""
    from . import constructions
    kind, delta = inputs["kind"], inputs["delta"]
    if kind != "gamma" and delta is not None:
        raise ValueError(f"construct --kind {kind} does not take --delta")
    if kind == "dstar":
        seq = constructions.dstar_sequence(group)
    elif kind == "kstar":
        seq = constructions.kstar_sequence(group)
    elif delta is None:
        raise ValueError("construct --kind gamma requires --delta")
    else:
        seq = constructions.gamma_extremal_sequence(group, delta)
    stated = {"construction": kind, **({} if delta is None else {"delta": delta}),
              "sequence": sequence_to_json(seq), "length": len(seq)}
    cross, count = sequences.cross_number(seq), sequences.max_order_count(seq)
    results = {**stated, "cross_number": rational_to_json(cross),
               "max_order_count": count, "zero_sumfree": True}
    lines = [f"group {group}, construction {kind}"
             + (f", delta = {delta}" if delta is not None else ""),
             f"  sequence: {seq}",
             f"  length {len(seq)}, cross number {cross}, max-order count {count}",
             "  zero-sumfree: verified"]
    claims = [{"kind": "construction", **stated}]
    return {"kind": kind, "delta": delta}, claims, results, "ok", lines


def _enumerate(group, inputs, budget):
    from . import search
    length, found = inputs["length"], None if inputs["count_only"] else []
    count = search.enumerate_zero_sumfree(
        group, length, None if found is None else found.append, budget=budget)
    results = {"length": length, "count": count}
    if found is not None:
        results["sequences"] = [sequence_to_json(s) for s in found]
    lines = [f"group {group}: {count} zero-sumfree sequence(s) of length {length}",
             *(f"  {s}" for s in found or ())]
    claims = [{"kind": "enumeration", "length": length, "count": count}]
    return {"length": length}, claims, results, "ok", lines


# check name -> (input parameters, checker). An input maps to True when the
# check requires it. The checker is named, not stored: ``_check`` looks it up
# in ``verifier`` when the check runs, so a rebound module attribute (such as
# a tracing wrapper) is the one called, and the parser reads the names
# without loading the verifier.
CHECKS = {
    "cross-number": ({}, "check_cross_number_conjecture"),
    "davenport-dual": ({}, "check_dual_conjecture"),
    "order-divisibility": ({"threshold": False}, "check_order_divisibility"),
    "heights": ({}, "check_heights"),
    "max-order": ({}, "check_corollary_max_order"),
    "gamma-conjecture": ({"delta": True}, "check_gamma_conjecture"),
}


def _check(group, inputs, budget):
    from . import verifier
    name = inputs["name"]
    takes, checker = CHECKS[name]
    given = {key: inputs.get(key) for key in ("delta", "threshold")}
    for key, value in given.items():
        if value is None and takes.get(key):
            raise ValueError(f"check {name} requires --{key}")
        if value is not None and key not in takes:
            raise ValueError(f"check {name} does not take --{key}")
    report = getattr(verifier, checker)(group, budget=budget, **{
        key: value for key, value in given.items() if value is not None})
    counterexample, checked = report.counterexample, dict(report.parameters)
    if counterexample is not None:  # every sequence a check walks is zero-sumfree
        sequences.check_witness(counterexample)
    stated = {"check": report.name, "parameters": checked, "verdict": report.verdict,
              "nodes": report.nodes_visited, "counterexample": None if counterexample is None
              else sequence_to_json(counterexample)}
    results = {**stated, "implementation_bug": report.implementation_bug,
               "details": {key: rational_to_json(value) if isinstance(value, Fraction)
                           else value for key, value in report.details}}
    lines = [f"group {group}, check {report.name} {checked if checked else ''}".rstrip(),
             f"  verdict: {report.verdict}  (nodes visited: {report.nodes_visited})"]
    lines += [f"  {key}: {value}" for key, value in report.details]
    if counterexample is not None:
        lines.append(f"  counterexample: {counterexample}")
        if report.implementation_bug:
            lines.append("  note: this contradicts a proved statement; "
                         "suspect the implementation first")
    parameters = {"name": name, **{key: checked[key] for key in takes}}
    claims = [{"kind": "check", **stated}]
    return parameters, claims, results, report.verdict, lines


# command -> (its function, whether it searches and records its budget, its
# inputs). An input maps to int, bool or the values it may take: its CLI
# flag's type or choices. ``run_command`` refuses any other value of a
# choice; the function that takes an integer input refuses a non-integer.
COMMANDS = {
    "invariants": (_invariants, True, {"method": _METHODS}),
    "dpair": (_dpair, True, {"method": _METHODS, "d_prime": int, "d": int}),
    "gamma": (_gamma, True, {"method": _METHODS, "delta": int}),
    "construct": (_construct, False, {"kind": ("dstar", "kstar", "gamma"), "delta": int}),
    "enumerate": (_enumerate, True, {"length": int, "count_only": bool}),
    "check": (_check, True, {"name": CHECKS, "delta": int, "threshold": int}),
}


def run_command(command: str, group_input: str, inputs: dict,
                budget: SearchBudget | None,
                recorded: SearchBudget | None = None
                ) -> tuple[dict, list[str]]:
    """Run ``command`` on the group ``group_input`` names, searching under
    ``budget``: its certificate's JSON document and its text lines. The
    command has checked every witness it claims. The certificate records
    ``recorded`` as its budget, by default ``budget``."""
    if command not in COMMANDS:
        raise CertificateError(f"unknown command {command!r}")
    group = parse_group_spec(group_input)
    run, searches, takes = COMMANDS[command]
    for name, allowed in takes.items():
        if allowed in (int, bool):
            continue
        if not isinstance(inputs[name], str) or inputs[name] not in allowed:
            raise ValueError(f"{name} must be one of {', '.join(allowed)}, "
                             f"not {inputs[name]!r}")
    parameters, claims, results, status, lines = run(group, inputs, budget)
    if searches:
        recorded = recorded or budget or DEFAULT_BUDGET
        parameters["budget"] = {"max_nodes": recorded.max_nodes,
                                "max_seconds": float(recorded.max_seconds)}
    # keys in the order they derive, which verify_certificate compares in
    cert = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "zerosum", "version": VERSION},
        "command": command,
        "group": {"input": group_input, "invariant_factors": list(group.invariant_factors)},
        "claims": claims,
        "status": status,
        "parameters": parameters,
        "results": results,
    }
    return cert, lines


# -- re-verification -----------------------------------------------------------

@record()
class VerificationOutcome:
    accepted: bool
    failures: list[str]
    claims_checked: int


_ABSENT = object()


def _difference(want, have, path: str = ""):
    """(path, wanted value, value had) at the first JSON path, in ``want``'s
    key order, where ``have`` differs from ``want`` as canonical JSON, so
    ``4.0`` differs from ``4`` and ``true`` from ``1``; None if nowhere."""
    if isinstance(want, dict) and isinstance(have, dict):
        children = [(f"{path}.{key}" if path else key, want.get(key, _ABSENT),
                     have.get(key, _ABSENT)) for key in {**want, **have}]
    elif isinstance(want, list) and isinstance(have, list):
        children = [(f"{path}[{i}]", want[i] if i < len(want) else _ABSENT,
                     have[i] if i < len(have) else _ABSENT)
                    for i in range(max(len(want), len(have)))]
    elif want is _ABSENT or have is _ABSENT or json.dumps(want) != json.dumps(have):
        return path, want, have
    else:
        return None
    for where, wanted, had in children:
        found = _difference(wanted, had, where)
        if found:
            return found
    return None


def _mismatch(rebuilt: dict, stored: dict) -> str | None:
    """Where the stored document differs from the rebuilt one, and how: the
    path, naming the claim's kind under ``claims[i]``, and both values."""
    found = _difference(rebuilt, stored)
    if found is None:
        return None
    path, wanted, had = found
    where = path
    if path.startswith("claims["):
        i = int(path[len("claims["):path.index("]")])
        claim = (rebuilt if i < len(rebuilt["claims"]) else stored)["claims"][i]
        where += f" ({claim.get('kind') if isinstance(claim, dict) else None})"
    wanted, had = ("absent" if v is _ABSENT else json.dumps(v) for v in (wanted, had))
    return f"{where} is {had}, re-derived {wanted}"


def _describe(err: Exception) -> str:
    return f"missing or unknown {err}" if isinstance(err, KeyError) else str(err)


def verify_certificate(source: dict | str | Path,
                       budget: SearchBudget | None = None) -> VerificationOutcome:
    """Re-run the certificate's command, given as its JSON document or the
    path of its file, and compare the two documents.

    The command runs on ``group.input`` with the inputs ``parameters``
    records, under ``budget``; a budget-exceeded certificate re-runs at the
    node budget it records. So every claim is re-derived by the routes its
    ``--method`` names, and every cross-route and witness check is made
    again. The re-run must equal the stored certificate but ``timing`` as
    canonical JSON; the first JSON path where it does not is reported.
    """
    stored = _checked(source if isinstance(source, dict) else _read_json(source))
    failures: list[str] = []
    try:
        # before re-running on a group the certificate does not state
        group_input = stored["group"]["input"]
        if (parse_group_spec(group_input).invariant_factors
                != tuple(stored["group"]["invariant_factors"])):
            raise CertificateError(f"group.invariant_factors are not those of "
                                   f"group.input {group_input!r}")
        parameters = stored["parameters"]
        inputs = {key: value for key, value in parameters.items() if key != "budget"}
        # an enumerate certificate records --count-only by leaving out the sequences
        inputs["count_only"] = "sequences" not in stored["results"]
        recorded = parameters.get("budget")
        if recorded is not None:
            if not isinstance(recorded, dict):
                raise CertificateError("parameters.budget is not an object")
            recorded = SearchBudget(recorded["max_nodes"], recorded["max_seconds"])
        exceeded = stored["status"] == "budget-exceeded" and recorded is not None
        if exceeded:
            base = budget or DEFAULT_BUDGET
            budget = SearchBudget(recorded.max_nodes, base.max_seconds)
        rebuilt, _ = run_command(stored["command"], group_input, inputs, budget, recorded)
        rebuilt["tool"]["version"] = stored.get("tool", {}).get("version", VERSION)
        mismatch = _mismatch(rebuilt, {key: value for key, value in stored.items()
                                       if key != "timing"})
        if mismatch:
            failures.append(mismatch + (
                ": the budget-exceeded verdict does not reproduce at the recorded"
                " node budget (a time budget is not reproducible)" if exceeded else ""))
    except Exception as err:  # any failure rejects; the message names it
        failures.append(_describe(err))
    return VerificationOutcome(accepted=not failures, failures=failures,
                               claims_checked=len(stored["claims"]))
