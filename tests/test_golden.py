"""Golden CLI runs: certificate bytes, text stdout and exit code of a fixed
set of cheap commands must not change.

The set covers every command, every check name, every construction kind and
every ``--method``, plus one counterexample and one budget-exceeded check.
After an intended change of the output, re-record the files with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from zerosum.certificates import verify_certificate
from zerosum.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> (argv without --out, exit code)
CASES = {
    "invariants-formula": ("invariants --group 2,4 --method formula", 0),
    "invariants-both": ("invariants --group 3,3 --method both", 0),
    "invariants-search-non-p": ("invariants --group 2,6 --method search", 0),
    "dpair-search": ("dpair --group 2,4 --dprime 2 --d 4 --method search", 0),
    "gamma-both": ("gamma --group 2,4 --delta 1 --method both", 0),
    "construct-dstar": ("construct --group 3,9 --kind dstar", 0),
    "construct-kstar": ("construct --group 2,6 --kind kstar", 0),
    "construct-gamma": ("construct --group 2,4 --kind gamma --delta 1", 0),
    "enumerate": ("enumerate --group 2,4 --length 3", 0),
    "check-cross-number": ("check --group 2,4 --name cross-number", 0),
    "check-davenport-dual": ("check --group 3,3 --name davenport-dual", 0),
    "check-order-divisibility": ("check --group 2,4 --name order-divisibility", 0),
    "check-heights": ("check --group 2,4 --name heights", 0),
    "check-max-order": ("check --group 3,3 --name max-order", 0),
    "check-gamma-conjecture": (
        "check --group 2,4 --name gamma-conjecture --delta 1", 0),
    "check-counterexample": (
        "check --group 2,6 --name order-divisibility --threshold 1", 1),
    "check-budget-exceeded": (
        "check --group 3,3 --name cross-number --budget-nodes 5", 3),
}


def run_case(argv: str, out: Path) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv.split() + ["--out", str(out)])
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    argv, expected_code = CASES[name]
    cert = tmp_path / "cert.json"
    code, stdout = run_case(argv, cert)
    assert code == expected_code
    assert stdout == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert cert.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


def record() -> None:
    """Re-record every case; a certificate that verify-cert rejects is not
    kept, and the run exits non-zero."""
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, (argv, expected_code) in sorted(CASES.items()):
            fresh = Path(tmp) / f"{name}.json"
            code, stdout = run_case(argv, fresh)
            if code != expected_code:
                sys.exit(f"{name}: exit {code}, expected {expected_code}")
            outcome = verify_certificate(fresh)
            if not outcome.accepted:
                sys.exit(f"{name}: verify-cert rejects it: {outcome.failures}")
            (GOLDEN / f"{name}.json").write_bytes(fresh.read_bytes())
            (GOLDEN / f"{name}.txt").write_text(stdout, encoding="utf-8")


if __name__ == "__main__":
    record()
