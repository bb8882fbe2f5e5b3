"""The package's record classes behave as the dataclasses they replace; no
CLI process imports ``dataclasses`` or ``inspect``, and each loads only the
modules of the route it runs."""

from __future__ import annotations

import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import zerosum
from zerosum import (AbelianGroup, CheckReport, DivisorPair,
                     GammaBounds, GroupElement, GSequence, SearchBudget,
                     SubsumTable, VerificationOutcome)

C24 = AbelianGroup((2, 4))

# class -> (required fields in order with a value, defaulted fields with the
# default they take, frozen)
RECORDS = {
    AbelianGroup: ({"invariant_factors": (2, 4)}, {}, True),
    GroupElement: ({"group": C24, "coords": (1, 3)}, {}, True),
    GSequence: ({"group": C24, "entries": ((1, 1), (2, 2))}, {}, True),
    SubsumTable: ({"group": C24, "mask": 0b110}, {}, True),
    DivisorPair: ({"d_prime": 2, "d": 4}, {}, True),
    GammaBounds: ({"delta": 1, "lower": 0, "upper": 2, "raw_lower": -1,
                   "raw_upper": 2}, {"exact": None}, True),
    SearchBudget: ({}, {"max_nodes": 100_000_000, "max_seconds": 300.0}, True),
    CheckReport: ({"name": "heights", "parameters": (("threshold", 3),),
                   "verdict": "verified", "counterexample": None, "nodes_visited": 7},
                  {"implementation_bug": False, "details": ()}, True),
    VerificationOutcome: ({"accepted": True, "failures": [], "claims_checked": 0},
                          {}, False),
}


def fresh(code: str, *args: str) -> str:
    """What ``code`` prints in a fresh interpreter that imports the package
    from this checkout."""
    src = str(Path(zerosum.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True).stdout.strip()


LOADED = "print(*sorted(m for m in sys.modules if m.startswith('zerosum.')))"


def test_import_leaves_out_dataclasses_and_inspect():
    out = fresh("import sys, zerosum.cli; "
                "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert out == "[]"


def test_import_loads_no_module_until_a_name_is_used():
    out = fresh(f"import sys, zerosum; {LOADED}; from zerosum import *; "
                "print([name for name in zerosum.__all__ if name not in globals()])")
    assert out.splitlines() == ["zerosum._version", "[]"]


def test_cli_import_loads_only_the_parser_modules():
    out = fresh(f"import sys, zerosum.cli; {LOADED}")
    assert out.split() == ["zerosum._record", "zerosum._version", "zerosum.cli",
                           "zerosum.errors", "zerosum.groups"]


# command -> whether its route runs the search engine
ROUTES = {
    "invariants --group 2,4 --method formula": False,
    "invariants --group 3,3 --method both": True,
    "dpair --group 2,4 --dprime 2 --d 4 --method both": True,
    "gamma --group 2,4 --delta 1 --method both": True,
    "construct --group 3,9 --kind dstar": False,
    "construct --group 3,9 --kind gamma --delta 2": False,
    "enumerate --group 2,4 --length 3": True,
    "check --group 2,4 --name cross-number": True,
}


@pytest.mark.parametrize("command", ROUTES)
def test_a_command_loads_only_its_route(command, tmp_path):
    # the command, then the verify-cert of its certificate, each in a fresh
    # interpreter; only check runs the verifier, only construct a
    # construction, and only a route that searches loads the compiled
    # kernel, where one can be built
    from zerosum import _kernel
    compiled = _kernel.load() is not None
    cert, kind = tmp_path / "cert.json", command.split()[0]
    run = ("import contextlib, io, sys\n"
           "from zerosum.cli import main\n"
           "with contextlib.redirect_stdout(io.StringIO()):\n"
           "    assert main(sys.argv[1:]) == 0\n" + LOADED)
    for argv in ([*command.split(), "--out", str(cert)], ["verify-cert", "--in", str(cert)]):
        loaded = fresh(run, *argv).split()
        assert ("zerosum.search" in loaded) == ROUTES[command]
        assert ("zerosum._kernel" in loaded) == ROUTES[command]
        assert ("zerosum._ckernel" in loaded) == (ROUTES[command] and compiled)
        assert ("zerosum.verifier" in loaded) == (kind == "check")
        assert ("zerosum.constructions" in loaded) == (kind == "construct")


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_behaves_as_a_dataclass(cls):
    required, defaults, frozen = RECORDS[cls]
    names = [*required, *defaults]
    record = cls(*required.values())
    assert record == cls(**dict(reversed(required.items())))
    assert record == cls(*required.values(), *defaults.values())
    for name, default in defaults.items():
        assert getattr(record, name) == default
    with pytest.raises(TypeError):
        cls(*required.values(), *defaults.values(), None)
    with pytest.raises(TypeError):
        cls(*required.values(), unknown=None)
    if required:
        with pytest.raises(TypeError):
            cls(*list(required.values())[:-1])

    twin = type(cls.__name__, (), {})()
    vars(twin).update(vars(record))
    assert record != twin and twin != record

    assert repr(record) == (f"{cls.__name__}("
                            + ", ".join(f"{name}={getattr(record, name)!r}"
                                        for name in names) + ")")
    assert pickle.loads(pickle.dumps(record)) == record

    name = names[-1]
    if frozen:
        assert hash(record) == hash(cls(*required.values()))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    else:
        with pytest.raises(TypeError):
            hash(record)
        setattr(record, name, None)
        assert getattr(record, name) is None
