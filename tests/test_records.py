"""The package's record classes behave as the dataclasses they replace, and
no CLI process imports ``dataclasses`` or ``inspect``."""

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


def test_import_leaves_out_dataclasses_and_inspect():
    src = str(Path(zerosum.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, zerosum.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


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
