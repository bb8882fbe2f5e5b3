"""Command-line interface: invariant commands, certificates, re-verification.

Exit codes: 0 success/verified, 1 counterexample found, 2 usage error,
3 budget exceeded, 4 internal-consistency failure (two routes disagreed or a
construction failed its self-check).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from fractions import Fraction

from . import constructions, formulas, search, sequences, verifier
from ._version import VERSION
from .certificates import (Certificate, certificate_json, check_claim,
                           load_certificate, rational_to_json, sequence_to_json,
                           verify_certificate, write_certificate)
from .errors import (BudgetExceededError, CertificateError,
                     InternalCheckError, ZeroSumError)
from .groups import AbelianGroup, normalize_group

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

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


# -- argument plumbing ---------------------------------------------------------

def _budget_from(args) -> search.SearchBudget:
    """The search budget: the flags, else ``ZEROSUM_BUDGET``, else the defaults."""
    limits = {"nodes": search.DEFAULT_BUDGET.max_nodes,
              "seconds": search.DEFAULT_BUDGET.max_seconds}
    raw = os.environ.get("ZEROSUM_BUDGET", "")
    for part in filter(None, (p.strip() for p in raw.split(","))):
        key, sep, val = part.partition("=")
        if not sep:
            raise ValueError(f"ZEROSUM_BUDGET entry {part!r} is not key=value")
        if key.strip() not in limits:
            raise ValueError(f"ZEROSUM_BUDGET key {key!r} unknown")
        limits[key.strip()] = int(val) if key.strip() == "nodes" else float(val)
    if args.budget_nodes is not None:
        limits["nodes"] = args.budget_nodes
    if args.budget_seconds is not None:
        limits["seconds"] = args.budget_seconds
    return search.SearchBudget(max_nodes=limits["nodes"],
                               max_seconds=limits["seconds"],
                               parallel_width=args.parallel)


def _add_common(parser: argparse.ArgumentParser, method=False, budget=True,
                certificate=True):
    """Add the flags a command reads: ``--group``, ``--out`` and ``--timing``
    for commands that emit a certificate, ``--method`` where both routes
    exist, the budget flags where a search runs, and always ``--format``."""
    if certificate:
        parser.add_argument("--group", required=True, metavar="SPEC",
                            help='group spec, e.g. "2,4" or "C2xC4"')
    if method:
        parser.add_argument("--method", choices=("formula", "search", "both"),
                            default="both")
    if budget:
        parser.add_argument("--budget-nodes", type=int, default=None, metavar="N")
        parser.add_argument("--budget-seconds", type=float, default=None,
                            metavar="S")
        parser.add_argument("--parallel", type=int,
                            default=search.DEFAULT_BUDGET.parallel_width,
                            metavar="W",
                            help="worker processes for large searches "
                                 "(default: the usable CPUs)")
    if certificate:
        parser.add_argument("--out", default=None, metavar="FILE",
                            help="write the JSON certificate here")
        parser.add_argument("--timing", action="store_true",
                            help="include wall-clock timing in the certificate "
                                 "(off by default so reports stay "
                                 "byte-reproducible)")
    parser.add_argument("--format", choices=("json", "text"), default="text")


def _command(body):
    """Turn a command body into a ``handler(args) -> int``.

    The body gets ``(args, group, budget)`` and returns ``(parameters,
    results, claims, status, lines)``. The handler builds the certificate
    (with the budget in its parameters when the command searches), writes
    ``--out``, prints the certificate or the text lines and the status, and
    maps the status to the exit code.
    """
    command = body.__name__.removeprefix("cmd_")

    @functools.wraps(body)
    def handler(args) -> int:
        started = time.monotonic()
        group = parse_group_spec(args.group)
        # a command searches exactly when its parser has the budget flags
        budget = _budget_from(args) if "budget_nodes" in vars(args) else None
        parameters, results, claims, status, lines = body(args, group, budget)
        if budget is not None:
            parameters["budget"] = {"max_nodes": budget.max_nodes,
                                    "max_seconds": budget.max_seconds}
        cert = Certificate(command, args.group, group.invariant_factors,
                           parameters, results, claims, status)
        if args.timing:
            cert.timing = {"seconds": round(time.monotonic() - started, 3)}
        if args.out:
            write_certificate(cert, args.out)
        if args.format == "json":
            sys.stdout.write(certificate_json(cert))
        else:
            print("\n".join([*lines, f"status: {status}"]))
        if status in ("ok", "verified"):
            return EXIT_OK
        if status == "budget-exceeded":
            return EXIT_BUDGET
        if results.get("implementation_bug"):
            return EXIT_INTERNAL
        return EXIT_COUNTEREXAMPLE
    return handler


# -- command handlers -----------------------------------------------------------

@_command
def cmd_invariants(args, group, budget):
    d_star, k_star = formulas.d_star(group), formulas.k_star(group)
    results: dict = {
        "cardinality": group.cardinality,
        "exponent": group.exponent,
        "rank": group.rank,
        "invariant_factors": list(group.invariant_factors),
        "primary_decomposition": list(group.primary_decomposition()),
        "d_star": d_star,
        "k_star": rational_to_json(k_star),
    }
    claims: list[dict] = [
        {"kind": "d_star", "value": d_star},
        {"kind": "k_star", "value": results["k_star"]},
    ]
    lines = [f"group {group} (invariant factors "
             f"{','.join(map(str, group.invariant_factors))})",
             f"  |G| = {group.cardinality}  exp(G) = {group.exponent}  "
             f"rank = {group.rank}",
             f"  primary decomposition: "
             f"{','.join(map(str, group.primary_decomposition()))}",
             f"  d*(G) = {d_star}  k*(G) = {k_star}"]
    formula_d = formula_k = None
    if args.method in ("formula", "both"):
        if group.is_p_group:
            formula_d = formulas.davenport_p_group(group)
            formula_k = formulas.little_cross_p_group(group)
        elif group.rank == 1:
            formula_d = group.exponent - 1
        davenport = None if formula_d is None else formula_d + 1
        results["formula"] = {
            "d": formula_d, "davenport": davenport,
            "k": None if formula_k is None else rational_to_json(formula_k)}
        lines.append(f"  formula: d(G) = {formula_d}  D(G) = {davenport}  "
                     f"k(G) = {formula_k}")
    if args.method in ("search", "both"):
        d_value, d_witness = search.longest_zero_sumfree(group, budget)
        k_value, k_witness = search.max_cross_number(group, budget)
        if d_value < d_star:
            raise InternalCheckError(
                f"search found d(G) = {d_value} below the d* lower bound")
        if k_value < k_star:
            raise InternalCheckError(
                f"search found k(G) = {k_value} below the k* lower bound")
        results["search"] = {
            "d": d_value, "davenport": d_value + 1,
            "d_witness": sequence_to_json(d_witness.sequence),
            "k": rational_to_json(k_value),
            "k_witness": sequence_to_json(k_witness.sequence),
        }
        if args.method == "both":
            if formula_d is not None and formula_d != d_value:
                raise InternalCheckError(
                    f"formula d(G) = {formula_d} but search found {d_value}")
            if formula_k is not None and formula_k != k_value:
                raise InternalCheckError(
                    f"formula k(G) = {formula_k} but search found {k_value}")
        claims.append({"kind": "davenport", "value": d_value,
                       "witness": results["search"]["d_witness"]})
        claims.append({"kind": "little_cross", "value": rational_to_json(k_value),
                       "witness": results["search"]["k_witness"]})
        lines += [f"  search:  d(G) = {d_value}  D(G) = {d_value + 1}  "
                  f"k(G) = {k_value}",
                  f"    d witness: {d_witness.sequence}",
                  f"    k witness: {k_witness.sequence}"]
    elif formula_d is not None:
        claims.append({"kind": "davenport", "value": formula_d, "witness": None})
    return {"method": args.method}, results, claims, "ok", lines


@_command
def cmd_dpair(args, group, budget):
    pair = formulas.DivisorPair(args.dprime, args.d)
    pair.validate_for(group)
    upsilon = formulas.upsilon_vector(group, pair)
    reduced = formulas.reduced_group(group, pair)
    results: dict = {
        "d_prime": pair.d_prime, "d": pair.d,
        "upsilon": list(upsilon),
        "reduced_factors": None if reduced is None else list(reduced.invariant_factors),
    }
    claim = {"kind": "d_pair", "d_prime": pair.d_prime, "d": pair.d}
    lines = [f"group {group}, d' = {pair.d_prime}, d = {pair.d}",
             f"  upsilon vector: ({','.join(map(str, upsilon))})",
             f"  reduced group: "
             f"{'trivial' if reduced is None else str(reduced)}"]
    formula_value = search_value = None
    if args.method in ("formula", "both"):
        formula_value = search.d_pair_value(group, pair, budget)
        results["formula_value"] = formula_value
        lines.append(f"  via reduction:  D_(d',d) = {formula_value}")
    if args.method in ("search", "both"):
        length, witness = search.longest_avoiding(group, pair, budget)
        search_value = length + 1
        results["search_value"] = search_value
        results["witness"] = claim["witness"] = sequence_to_json(witness.sequence)
        lines += [f"  by brute force: D_(d',d) = {search_value}",
                  f"    longest avoiding witness: {witness.sequence}"]
    if args.method == "both" and formula_value != search_value:
        raise InternalCheckError(
            f"reduction route gives {formula_value}, brute force {search_value}")
    claim["value"] = search_value if search_value is not None else formula_value
    parameters = {"method": args.method, "d_prime": pair.d_prime, "d": pair.d}
    return parameters, results, [claim], "ok", lines


@_command
def cmd_gamma(args, group, budget):
    delta = args.delta
    bounds = formulas.gamma_bounds(group, delta)
    results: dict = {
        "delta": delta,
        "j0": formulas.j0(group),
        "d": formulas.davenport_p_group(group),
        "bounds": {"lower": bounds.lower, "upper": bounds.upper,
                   "raw_lower": bounds.raw_lower, "raw_upper": bounds.raw_upper},
        "exact_formula": bounds.exact,
    }
    claims: list[dict] = [{"kind": "gamma_bounds", "delta": delta,
                           **results["bounds"], "exact_formula": bounds.exact}]
    lines = [f"group {group}, delta = {delta} (j0 = {results['j0']}, "
             f"d(G) = {results['d']})",
             f"  lower bound {bounds.lower} (raw {bounds.raw_lower}), "
             f"upper bound {bounds.upper} (raw {bounds.raw_upper})"]
    if bounds.exact is not None:
        lines.append(f"  exact closed form: {bounds.exact}")
    if args.method in ("search", "both"):
        exact, witness = search.gamma_exact(group, delta, budget)
        results["search"] = {"value": exact,
                             "witness": sequence_to_json(witness.sequence)}
        results["matches_upper"] = exact == bounds.upper
        if not bounds.lower <= exact <= bounds.upper:
            raise InternalCheckError(
                f"search value {exact} escapes the proven bounds "
                f"[{bounds.lower}, {bounds.upper}]")
        if args.method == "both" and bounds.exact is not None and exact != bounds.exact:
            raise InternalCheckError(
                f"exact closed form gives {bounds.exact} but search found {exact}")
        claims.append({"kind": "gamma_exact", "delta": delta, "value": exact,
                       "witness": results["search"]["witness"]})
        lines += [f"  exhaustive value: {exact}  "
                  f"(equals upper bound: {results['matches_upper']})",
                  f"    witness: {witness.sequence}"]
    return {"method": args.method, "delta": delta}, results, claims, "ok", lines


@_command
def cmd_construct(args, group, budget):
    if args.kind != "gamma" and args.delta is not None:
        raise ValueError(f"construct --kind {args.kind} does not take --delta")
    if args.kind == "dstar":
        seq = constructions.dstar_sequence(group)
    elif args.kind == "kstar":
        seq = constructions.kstar_sequence(group)
    else:
        if args.delta is None:
            raise ValueError("construct --kind gamma requires --delta")
        seq = constructions.gamma_extremal_sequence(group, args.delta)
    cross = sequences.cross_number(seq)
    results = {
        "construction": args.kind,
        "sequence": sequence_to_json(seq),
        "length": len(seq),
        "cross_number": rational_to_json(cross),
        "max_order_count": sequences.max_order_count(seq),
        "zero_sumfree": True,
    }
    claim = {"kind": "construction", "construction": args.kind,
             "sequence": results["sequence"], "length": len(seq)}
    if args.kind == "gamma":
        claim["delta"] = results["delta"] = args.delta
    lines = [f"group {group}, construction {args.kind}"
             + (f", delta = {args.delta}" if args.kind == "gamma" else ""),
             f"  sequence: {seq}",
             f"  length {len(seq)}, cross number {cross}, "
             f"max-order count {results['max_order_count']}",
             "  zero-sumfree: verified"]
    return {"kind": args.kind, "delta": args.delta}, results, [claim], "ok", lines


@_command
def cmd_enumerate(args, group, budget):
    collected: list[sequences.GSequence] = []
    visitor = None if args.count_only else collected.append
    count = search.enumerate_zero_sumfree(group, args.length, visitor, budget=budget)
    results: dict = {"length": args.length, "count": count}
    if not args.count_only:
        results["sequences"] = [sequence_to_json(s) for s in collected]
    claims = [{"kind": "enumeration", "length": args.length, "count": count}]
    lines = [f"group {group}: {count} zero-sumfree sequence(s) of length {args.length}"]
    lines += [f"  {s}" for s in collected]
    return {"length": args.length}, results, claims, "ok", lines


@_command
def cmd_check(args, group, budget):
    _, takes, _ = verifier.CHECKS[args.name]
    inputs = {"delta": args.delta, "threshold": args.threshold}
    for key, value in inputs.items():
        if value is None and takes.get(key):
            raise ValueError(f"check {args.name} requires --{key}")
        if value is not None and key not in takes:
            raise ValueError(f"check {args.name} does not take --{key}")
    report = verifier.run_check(
        args.name, group, {k: v for k, v in inputs.items() if v is not None}, budget)
    claim = check_claim(report)
    report_params = claim["parameters"]
    results = {key: value for key, value in claim.items() if key != "kind"}
    results["implementation_bug"] = report.implementation_bug
    results["details"] = {key: rational_to_json(value) if isinstance(value, Fraction)
                          else value for key, value in report.details}
    lines = [f"group {group}, check {report.name} "
             f"{report_params if report_params else ''}".rstrip(),
             f"  verdict: {report.verdict}  (nodes visited: {report.nodes_visited})"]
    lines += [f"  {key}: {value}" for key, value in report.details]
    if report.counterexample is not None:
        lines.append(f"  counterexample: {report.counterexample}")
        if report.implementation_bug:
            lines.append("  note: this contradicts a proved statement; "
                         "suspect the implementation first")
    parameters = {"name": args.name, **{key: report_params[key] for key in takes}}
    return parameters, results, [claim], report.verdict, lines


def cmd_verify_cert(args) -> int:
    cert = load_certificate(args.infile)
    outcome = verify_certificate(cert, _budget_from(args))
    if args.format == "json":
        sys.stdout.write(json.dumps(
            {"accepted": outcome.accepted, "claims_checked": outcome.claims_checked,
             "failures": outcome.failures}, sort_keys=True, indent=2) + "\n")
    else:
        print(f"certificate: {cert.command} on "
              f"{','.join(map(str, cert.invariant_factors))}")
        print(f"  claims checked: {outcome.claims_checked}")
        if outcome.accepted:
            print("  accepted: all claims re-derived from scratch")
        else:
            for failure in outcome.failures:
                print(f"  FAILED {failure}")
    return EXIT_OK if outcome.accepted else EXIT_COUNTEREXAMPLE


# -- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zerosum",
        description="Zero-sum invariants of finite abelian groups: closed "
                    "forms, exhaustive oracles, and verifiable certificates.")
    parser.add_argument("--version", action="version", version=f"zerosum {VERSION}")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("invariants", help="d*, k*, d(G), k(G) by formula and search")
    _add_common(p, method=True)
    p.set_defaults(handler=cmd_invariants)

    p = sub.add_parser("dpair", help="two-level Davenport constant D_(d',d)")
    _add_common(p, method=True)
    p.add_argument("--dprime", type=int, required=True, metavar="N")
    p.add_argument("--d", type=int, required=True, metavar="N")
    p.set_defaults(handler=cmd_dpair)

    p = sub.add_parser("gamma", help="minimal max-order count in long "
                                     "zero-sumfree sequences (p-groups)")
    _add_common(p, method=True)
    p.add_argument("--delta", type=int, required=True, metavar="N")
    p.set_defaults(handler=cmd_gamma)

    p = sub.add_parser("construct", help="explicit extremal sequences")
    _add_common(p, budget=False)
    p.add_argument("--kind", choices=("dstar", "kstar", "gamma"), required=True)
    p.add_argument("--delta", type=int, default=None, metavar="N")
    p.set_defaults(handler=cmd_construct)

    p = sub.add_parser("enumerate", help="list zero-sumfree sequences of one length")
    _add_common(p)
    p.add_argument("--length", type=int, required=True, metavar="N")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("check", help="exhaustive theorem/conjecture checkers")
    _add_common(p)
    p.add_argument("--name", choices=tuple(verifier.CHECKS), required=True)
    p.add_argument("--delta", type=int, default=None, metavar="N")
    p.add_argument("--threshold", type=int, default=None, metavar="N")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("verify-cert", help="re-verify a certificate from scratch")
    _add_common(p, certificate=False)
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.set_defaults(handler=cmd_verify_cert)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
        return EXIT_OK if code == 0 else EXIT_USAGE
    if not hasattr(args, "handler"):
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.handler(args)
    except BudgetExceededError as err:
        print(f"budget exceeded: {err} (nodes visited: {err.nodes_visited})",
              file=sys.stderr)
        return EXIT_BUDGET
    except InternalCheckError as err:
        print(f"internal-consistency failure: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    except CertificateError as err:
        print(f"certificate error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ZeroSumError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
