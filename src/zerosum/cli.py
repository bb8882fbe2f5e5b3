"""Command-line interface: invariant commands, certificates, re-verification.

Exit codes: 0 success/verified, 1 counterexample found, 2 usage error,
3 budget exceeded, 4 internal-consistency failure (two routes disagreed or a
construction failed its self-check).

Every subcommand but ``verify-cert`` is built from its
``certificates.COMMANDS`` row, which declares each input once with its kind:
``int`` (a required integer flag), ``None`` (an optional integer), ``bool``
(a ``store_true`` flag) or its table of choices.

Importing this module loads no more of the package than ``groups``: each
handler imports ``certificates`` when it runs, and the command's route
imports the modules it runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from ._version import VERSION
from .errors import (BudgetExceededError, CertificateError,
                     InternalCheckError, ZeroSumError)
from .groups import parse_group_spec  # noqa: F401 (re-exported)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


# -- argument plumbing ---------------------------------------------------------

def _budget_from(args):
    """The ``SearchBudget`` of the budget flags given, the default filling the
    other; None when none is given (or the command has none), so that the
    route's default applies."""
    given = {key: value for key, value in vars(args).items()
             if key in ("max_nodes", "max_seconds") and value is not None}
    if not given:
        return None
    from ._budget import SearchBudget
    return SearchBudget(**given)


def _write(text: str) -> None:
    """Write ``text`` to stdout. A reader that has gone is no error of the
    command: stdout then points at the null device, so that the flush at
    exit cannot raise either ("Note on SIGPIPE", Python ``signal`` docs)."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _add_common(parser: argparse.ArgumentParser, row=None):
    """Add the flags a command reads: for its ``certificates.COMMANDS`` row,
    ``--group``, ``--out``, ``--timing`` and ``--method`` if it is an input;
    the budget flags if the row searches or there is none (``verify-cert``);
    and always ``--format``."""
    _, searches, _, inputs = row or (None, True, None, {})
    if row:
        parser.add_argument("--group", required=True, metavar="SPEC",
                            help='group spec, e.g. "2,4" or "C2xC4"')
    if "method" in inputs:
        parser.add_argument("--method", choices=tuple(inputs["method"]), default="both")
    if searches:  # a flag left out takes the SearchBudget field's default
        parser.add_argument("--budget-nodes", dest="max_nodes", type=int, metavar="N")
        parser.add_argument("--budget-seconds", dest="max_seconds", type=float,
                            metavar="S")
    if row:
        parser.add_argument("--out", default=None, metavar="FILE",
                            help="write the JSON certificate here")
        parser.add_argument("--timing", action="store_true",
                            help="include wall-clock timing in the certificate "
                                 "(off by default so reports stay "
                                 "byte-reproducible)")
    parser.add_argument("--format", choices=("json", "text"), default="text")


def cmd_run(args) -> int:
    """Run ``args.command`` through ``certificates.run_command`` on the flags
    of the inputs its ``COMMANDS`` row names, write ``--out``, print the
    certificate or the text lines and the status, and map the status to the
    exit code."""
    from .certificates import COMMANDS, certificate_json, run_command, write_certificate
    started = time.monotonic()
    inputs = {name: getattr(args, name) for name in COMMANDS[args.command][3]}
    cert, lines = run_command(args.command, args.group, inputs, _budget_from(args))
    if args.timing:
        cert["timing"] = {"seconds": round(time.monotonic() - started, 3)}
    if args.out:
        write_certificate(cert, args.out)
    if args.format == "json":
        _write(certificate_json(cert))
    else:
        _write("\n".join([*lines, f"status: {cert['status']}"]) + "\n")
    if cert["status"] in ("ok", "verified"):
        return EXIT_OK
    if cert["status"] == "budget-exceeded":
        return EXIT_BUDGET
    if cert["results"].get("implementation_bug"):
        return EXIT_INTERNAL
    return EXIT_COUNTEREXAMPLE


def cmd_verify_cert(args) -> int:
    from .certificates import load_certificate, verify_certificate
    cert = load_certificate(args.infile)
    outcome = verify_certificate(cert, _budget_from(args))
    if args.format == "json":
        _write(json.dumps(
            {"accepted": outcome.accepted, "claims_checked": outcome.claims_checked,
             "failures": outcome.failures}, sort_keys=True, indent=2) + "\n")
    else:
        lines = [f"certificate: {cert['command']} on "
                 f"{','.join(map(str, cert['group']['invariant_factors']))}",
                 f"  claims checked: {outcome.claims_checked}"]
        lines += (["  accepted: all claims re-derived from scratch"] if outcome.accepted
                  else [f"  FAILED {failure}" for failure in outcome.failures])
        _write("\n".join(lines) + "\n")
    return EXIT_OK if outcome.accepted else EXIT_COUNTEREXAMPLE


# -- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    from .certificates import COMMANDS
    parser = argparse.ArgumentParser(
        prog="zerosum",
        description="Zero-sum invariants of finite abelian groups: closed "
                    "forms, exhaustive oracles, and verifiable certificates.")
    parser.add_argument("--version", action="version", version=f"zerosum {VERSION}")
    sub = parser.add_subparsers(dest="command")
    for command, row in COMMANDS.items():
        p = sub.add_parser(command, help=row[2])
        _add_common(p, row)
        for name, kind in row[3].items():
            flag = "--dprime" if name == "d_prime" else "--" + name.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, action="store_true")
            elif kind in (int, None):
                p.add_argument(flag, dest=name, type=int, required=kind is int, metavar="N")
            elif name != "method":  # _add_common adds --method, which has a default
                p.add_argument(flag, choices=tuple(kind), required=True)
        p.set_defaults(handler=cmd_run)

    p = sub.add_parser("verify-cert", help="re-verify a certificate from scratch")
    _add_common(p)
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
