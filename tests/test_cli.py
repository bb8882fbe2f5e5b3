from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zerosum
from zerosum import InvalidGroupError, constructions, verifier
from zerosum.cli import (EXIT_BUDGET, EXIT_COUNTEREXAMPLE, EXIT_INTERNAL,
                         EXIT_OK, EXIT_USAGE, main, parse_group_spec)
from zerosum.search import _rank_lists

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(zerosum.__file__).resolve().parents[1]


class TestParseGroupSpec:
    def test_comma_form(self):
        assert parse_group_spec("2,4").invariant_factors == (2, 4)

    def test_c_form_normalizes(self):
        assert parse_group_spec("C4xC6").invariant_factors == (2, 12)
        assert parse_group_spec("c2Xc4").invariant_factors == (2, 4)

    def test_whitespace_ignored(self):
        assert parse_group_spec(" 2 , 4 ").invariant_factors == (2, 4)

    def test_factor_below_two(self):
        with pytest.raises(InvalidGroupError):
            parse_group_spec("1")

    def test_syntax_error_reports_position(self):
        with pytest.raises(ValueError, match="position 1"):
            parse_group_spec("2;4")
        with pytest.raises(ValueError, match="position"):
            parse_group_spec("2,,4")
        with pytest.raises(ValueError):
            parse_group_spec("")


class TestExitCodes:
    def test_success(self, capsys):
        assert main(["gamma", "--group", "2,4", "--delta", "1",
                     "--method", "both"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "exhaustive value: 1" in out

    def test_usage_error_bad_group(self, capsys):
        assert main(["invariants", "--group", "1"]) == EXIT_USAGE

    def test_usage_error_unknown_flag(self):
        assert main(["invariants", "--group", "2,4", "--nope"]) == EXIT_USAGE

    def test_usage_error_no_command(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_usage_error_delta_missing(self):
        assert main(["gamma", "--group", "2,4"]) == EXIT_USAGE

    def test_usage_error_non_p_group_gamma(self):
        assert main(["gamma", "--group", "6", "--delta", "0"]) == EXIT_USAGE

    def test_budget_exceeded(self, capsys):
        assert main(["invariants", "--group", "2,8", "--method", "search",
                     "--budget-nodes", "3"]) == EXIT_BUDGET

    @pytest.mark.parametrize("width", [1, 2])
    def test_node_budget_counts_the_reduced_walk(self, capsys, usable_cpus, width):
        # C5xC5 is one orbit under Aut(G): one root task of 3,407 nodes
        usable_cpus(width)
        command = ["invariants", "--group", "5,5", "--budget-nodes"]
        assert main(command + ["3406"]) == EXIT_BUDGET
        assert main(command + ["3407"]) == EXIT_OK

    def test_usage_error_nan_time_budget(self, capsys):
        assert main(["invariants", "--group", "2,4", "--method", "search",
                     "--budget-seconds", "nan"]) == EXIT_USAGE
        assert main(["invariants", "--group", "2,4", "--method", "search",
                     "--budget-seconds", "inf"]) == EXIT_USAGE

    def test_counterexample_exit(self, tmp_path):
        code = main(["check", "--group", "2,6", "--name", "order-divisibility",
                     "--threshold", "1"])
        assert code == EXIT_COUNTEREXAMPLE

    def test_internal_error_exit(self, monkeypatch):
        from zerosum.certificates import COMMANDS
        from zerosum.errors import InternalCheckError

        def broken(group, inputs, budget):
            raise InternalCheckError("routes disagree")

        monkeypatch.setitem(COMMANDS, "invariants", (broken, *COMMANDS["invariants"][1:]))
        assert main(["invariants", "--group", "2,4"]) == EXIT_INTERNAL

    @pytest.mark.parametrize("factors, exit_code, bug", [
        ("4,4", EXIT_INTERNAL, True),          # j0 = 1, delta <= p - 2: proved
        ("2,4,4", EXIT_COUNTEREXAMPLE, False),  # 1 < j0 < r: open
    ])
    def test_gamma_counterexample_exit(self, capsys, monkeypatch, factors, exit_code, bug):
        # 5 lies in the bounds [5, 6] on both groups at delta = 0; the
        # sequence of rank 1 is zero-sumfree
        monkeypatch.setattr(verifier, "_gamma_scan", lambda group, delta, budget: (5, (1,), 0))
        command = ["check", "--group", factors, "--name", "gamma-conjecture", "--delta", "0"]
        assert main(command + ["--format", "json"]) == exit_code
        results = json.loads(capsys.readouterr().out)["results"]
        assert (results["verdict"], results["implementation_bug"]) == ("counterexample", bug)
        assert main(command) == exit_code
        out = capsys.readouterr().out
        assert "counterexample: " in out
        assert ("contradicts a proved statement" in out) == bug

    @pytest.mark.parametrize("kind, function, fault, message", [
        ("dstar", "d_star", lambda real: lambda g: real(g) + 1, "is not of length 5"),
        ("kstar", "k_star", lambda real: lambda g: real(g) + 1, "is not of cross number"),
        ("gamma", "gamma_upper", lambda real: lambda g, delta: real(g, delta) + 1,
         "is not of max-order count 4"),
    ])
    def test_failed_construction_exit(self, tmp_path, capsys, monkeypatch,
                                      kind, function, fault, message):
        monkeypatch.setattr(constructions, function,
                            fault(getattr(constructions, function)))
        out = tmp_path / "out.json"
        command = ["construct", "--group", "2,4", "--kind", kind, "--out", str(out)]
        assert main(command + (["--delta", "0"] if kind == "gamma" else [])) == EXIT_INTERNAL
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_verify_cert_rejected_exit(self, tmp_path):
        out = tmp_path / "cert.json"
        assert main(["gamma", "--group", "2,4", "--delta", "1",
                     "--out", str(out)]) == EXIT_OK
        obj = json.loads(out.read_text())
        next(c for c in obj["claims"]
             if c["kind"] == "gamma_exact")["value"] = 0
        out.write_text(json.dumps(obj))
        assert main(["verify-cert", "--in", str(out)]) == EXIT_COUNTEREXAMPLE

    def test_verify_cert_malformed_exit(self, tmp_path):
        cert = tmp_path / "cert.json"
        assert main(["construct", "--group", "2,4", "--kind", "dstar",
                     "--out", str(cert)]) == EXIT_OK
        edits = {"empty": lambda obj: obj.clear(),
                 "tool not an object": lambda obj: obj.update(tool="x"),
                 "factors not a list":
                     lambda obj: obj["group"].update(invariant_factors=5),
                 "command not a string": lambda obj: obj.update(command=["construct"]),
                 "group input not a string": lambda obj: obj["group"].update(input=24)}
        for name, edit in edits.items():
            obj = json.loads(cert.read_text())
            edit(obj)
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(obj))
            assert main(["verify-cert", "--in", str(bad)]) == EXIT_USAGE, name
        assert main(["verify-cert", "--in", str(tmp_path / "missing.json")]) \
            == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["invariants", "--group", "2,4", "--method", "formula"],
        ["invariants", "--group", "2,4", "--method", "formula", "--format", "json"],
        ["verify-cert", "--in", str(GOLDEN / "invariants-both.json")],
    ], ids=["text", "json", "verify-cert"])
    def test_closed_stdout_keeps_the_exit_code(self, argv, tmp_path):
        # the read end is closed before the child starts, so every write fails
        read, write = os.pipe()
        os.close(read)
        out = tmp_path / "cert.json"
        extra = [] if argv[0] == "verify-cert" else ["--out", str(out)]
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "zerosum.cli", *argv, *extra],
                stdout=write, stderr=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONPATH": str(SRC)})
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert not extra or json.loads(out.read_text())["status"] == "ok"


@pytest.fixture
def corrupt_order():
    """Sets one entry of a group's cached order table, restored afterwards."""
    undo = []

    def corrupt(factors, rank, order):
        orders = _rank_lists(factors)[0]
        undo.append((orders, rank, orders[rank]))
        orders[rank] = order

    yield corrupt
    for orders, rank, order in reversed(undo):
        orders[rank] = order


class TestChecksReadTheElementModel:
    """A search claim is checked without the search's rank lists, so a
    wrong entry in them cannot certify a wrong value."""

    def test_corrupted_order_fails_the_k_check(self, corrupt_order, capsys):
        # rank 2 of C2xC6 is (0,1), of order 6; read as 3, the search finds
        # k = 13/6, while k(C2xC6) = 5/3
        corrupt_order((2, 6), 2, 3)
        assert main(["invariants", "--group", "2,6", "--method", "search"]) == EXIT_INTERNAL
        assert "is not of cross number" in capsys.readouterr().err

    def test_corrupted_order_fails_the_d_pair_check(self, corrupt_order, capsys):
        # rank 4 of C2xC4 is (0,2), of order 2, so it lies in the forbidden
        # subgroup G_2 of D_(2,4); read as 4, the search finds the witness
        # (0,1)^3 and the value 4, while D_(2,4)(C2xC4) = 2
        corrupt_order((2, 4), 4, 4)
        assert main(["dpair", "--group", "2,4", "--dprime", "2", "--d", "4",
                     "--method", "search"]) == EXIT_INTERNAL
        assert "forbidden subgroup" in capsys.readouterr().err


class TestCommands:
    def test_invariants_text(self, capsys):
        assert main(["invariants", "--group", "3,3", "--method", "both"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "d(G) = 4" in out
        assert "k(G) = 4/3" in out

    def test_invariants_json(self, capsys):
        assert main(["invariants", "--group", "3,3", "--format", "json"]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["results"]["search"]["d"] == 4
        assert obj["results"]["search"]["k"] == {"num": 4, "den": 3}

    def test_invariants_non_p_group(self, capsys):
        assert main(["invariants", "--group", "2,6", "--format", "json"]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["results"]["formula"]["d"] is None
        assert obj["results"]["search"]["d"] == 6

    def test_dpair(self, capsys):
        assert main(["dpair", "--group", "2,4", "--dprime", "2", "--d", "4",
                     "--format", "json"]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["results"]["formula_value"] == 2
        assert obj["results"]["search_value"] == 2

    def test_dpair_validates_pair(self):
        assert main(["dpair", "--group", "2,4", "--dprime", "3", "--d", "4"]) \
            == EXIT_USAGE
        assert main(["dpair", "--group", "2,4", "--dprime", "3", "--d", "3"]) \
            == EXIT_USAGE

    def test_gamma_search_reports_conjecture_status(self, capsys):
        assert main(["gamma", "--group", "4,4", "--delta", "0",
                     "--method", "search", "--format", "json"]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["results"]["bounds"] == {"lower": 5, "upper": 6,
                                            "raw_lower": 5, "raw_upper": 6}
        assert obj["results"]["search"]["value"] == 6
        assert obj["results"]["matches_upper"] is True

    def test_construct_kinds(self, capsys):
        for kind, extra in [("dstar", []), ("kstar", []),
                            ("gamma", ["--delta", "1"])]:
            assert main(["construct", "--group", "2,4", "--kind", kind,
                         "--format", "json"] + extra) == EXIT_OK
            obj = json.loads(capsys.readouterr().out)
            assert obj["results"]["zero_sumfree"] is True

    def test_construct_gamma_needs_delta(self):
        assert main(["construct", "--group", "2,4", "--kind", "gamma"]) \
            == EXIT_USAGE

    def test_enumerate(self, capsys):
        assert main(["enumerate", "--group", "3", "--length", "2",
                     "--format", "json"]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["results"]["count"] == 2
        assert len(obj["results"]["sequences"]) == 2

    def test_enumerate_count_only(self, capsys):
        assert main(["enumerate", "--group", "3", "--length", "2",
                     "--count-only", "--format", "json"]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["results"]["count"] == 2
        assert "sequences" not in obj["results"]

    def test_check_all_names_on_small_group(self):
        for name in ("cross-number", "davenport-dual", "order-divisibility",
                     "heights", "max-order"):
            assert main(["check", "--group", "2,4", "--name", name]) == EXIT_OK
        assert main(["check", "--group", "2,4", "--name", "gamma-conjecture",
                     "--delta", "0"]) == EXIT_OK

    @pytest.mark.parametrize("argv", [
        "check --group 2,4 --name heights --delta 3",
        "check --group 2,4 --name cross-number --threshold 7",
        "check --group 2,4 --name gamma-conjecture",
        "construct --group 2,4 --kind dstar --budget-nodes 5",
        "construct --group 2,4 --kind dstar --parallel 1",
        "invariants --group 2,4 --parallel 1",
        "construct --group 2,4 --kind dstar --delta 3",
        "construct --group 2,4 --kind kstar --delta 3 --out kstar.json",
        "verify-cert --in cert.json --out copy.json",
        "verify-cert --in cert.json --timing",
        "enumerate --group 3",
        "dpair --group 2,4 --dprime 1 --d 0 --out dp.json",
        "dpair --group 2,4 --dprime 2 --d -4 --out dp.json",
    ])
    def test_usage_error_wrong_inputs(self, argv, tmp_path, monkeypatch):
        """A flag the command (or the chosen check) does not read, or a
        missing required input, is a usage error and writes nothing."""
        monkeypatch.chdir(tmp_path)
        assert main(["construct", "--group", "2,4", "--kind", "dstar",
                     "--out", "cert.json"]) == EXIT_OK
        assert main(argv.split()) == EXIT_USAGE
        assert [p.name for p in tmp_path.iterdir()] == ["cert.json"]

    def test_version_flag(self):
        assert main(["--version"]) == EXIT_OK

    def test_package_version_is_the_module_version(self):
        # pyproject.toml names zerosum._version.VERSION as its dynamic version
        pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # older setuptools: [tool.setuptools] is beta
            config = pyprojecttoml.read_configuration(SRC.parent / "pyproject.toml")
        assert "version" in config["project"]["dynamic"]
        assert config["project"]["version"] == zerosum.__version__


class TestTiming:
    def test_timing_opt_in(self, tmp_path):
        out = tmp_path / "t.json"
        assert main(["gamma", "--group", "2,4", "--delta", "0",
                     "--out", str(out), "--timing"]) == EXIT_OK
        assert "timing" in json.loads(out.read_text())
        out2 = tmp_path / "n.json"
        assert main(["gamma", "--group", "2,4", "--delta", "0",
                     "--out", str(out2)]) == EXIT_OK
        assert "timing" not in json.loads(out2.read_text())
