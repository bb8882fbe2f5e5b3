from __future__ import annotations

import json

import pytest

from zerosum import InvalidGroupError
from zerosum.cli import (EXIT_BUDGET, EXIT_COUNTEREXAMPLE, EXIT_INTERNAL,
                         EXIT_OK, EXIT_USAGE, main, parse_group_spec)


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

    def test_usage_error_nan_time_budget(self, capsys):
        assert main(["invariants", "--group", "2,4", "--method", "search",
                     "--budget-seconds", "nan"]) == EXIT_USAGE

    def test_counterexample_exit(self, tmp_path):
        code = main(["check", "--group", "2,6", "--name", "order-divisibility",
                     "--threshold", "1"])
        assert code == EXIT_COUNTEREXAMPLE

    def test_internal_error_exit(self, monkeypatch):
        import zerosum.cli as cli
        from zerosum.errors import InternalCheckError

        def broken(args):
            raise InternalCheckError("routes disagree")

        monkeypatch.setattr(cli, "cmd_invariants", broken)
        assert main(["invariants", "--group", "2,4"]) == EXIT_INTERNAL

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
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["verify-cert", "--in", str(bad)]) == EXIT_USAGE
        assert main(["verify-cert", "--in", str(tmp_path / "missing.json")]) \
            == EXIT_USAGE


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

    def test_version_flag(self):
        assert main(["--version"]) == EXIT_OK


class TestEnvironmentBudget:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("ZEROSUM_BUDGET", "nodes=3")
        assert main(["invariants", "--group", "2,8", "--method", "search"]) \
            == EXIT_BUDGET
        # explicit flag wins over the environment
        assert main(["invariants", "--group", "2,8", "--method", "search",
                     "--budget-nodes", "100000000"]) == EXIT_OK

    def test_env_malformed(self, monkeypatch):
        monkeypatch.setenv("ZEROSUM_BUDGET", "bogus")
        assert main(["invariants", "--group", "2,4"]) == EXIT_USAGE


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
