"""End-to-end command line tests through subprocess."""

import argparse
import contextlib
import dataclasses
import io
import json
import subprocess
import sys

import numpy as np
import pytest

import luequiv as lq
from luequiv.cli import _FLAGS, build_parser, main
from luequiv.io import load_state, save_state

from conftest import bell_density


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "luequiv.cli", *map(str, args)],
        capture_output=True,
        text=True,
    )


def write_states(directory):
    """The state files these tests run on, written into ``directory``."""
    save_state(directory / "mixed.json", np.eye(4, dtype=complex) / 4, 2, label="mixed")
    save_state(directory / "bell.json", bell_density().matrix, 2, label="bell")
    save_state(
        directory / "flat_a.json", np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex), 2
    )
    save_state(
        directory / "flat_b.json", np.diag([0.5, 0.0, 0.5, 0.0]).astype(complex), 2
    )
    save_state(
        directory / "trace2.json", np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex), 2
    )
    return {
        name: directory / f"{name}.json"
        for name in ("mixed", "bell", "flat_a", "flat_b", "trace2")
    }


def main_in_process(*args):
    """(exit code, stdout) of ``luequiv.cli.main``; usage errors end in SystemExit."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main([str(a) for a in args])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


@pytest.fixture
def states(tmp_path):
    return write_states(tmp_path)


class TestValidate:
    def test_valid_file(self, states):
        res = run_cli("validate", states["mixed"])
        assert res.returncode == 0
        assert "valid" in res.stdout

    def test_unit_trace_violation(self, states):
        res = run_cli("validate", states["trace2"])
        assert res.returncode == 5
        assert "trace" in res.stderr

    def test_truncated_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 1, "local_dim": 2, "matrix": [[')
        res = run_cli("validate", bad)
        assert res.returncode == 3

    def test_dimension_mismatch(self, tmp_path):
        save_state(tmp_path / "odd.json", np.eye(4, dtype=complex) / 4, 3)
        res = run_cli("validate", tmp_path / "odd.json")
        assert res.returncode == 7

    @pytest.mark.parametrize("entry", ["12", [1, 2, 3], [True, False]])
    def test_malformed_entry(self, states, tmp_path, entry):
        doc = json.loads(states["mixed"].read_text())
        doc["matrix"][0][1] = entry
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        res = run_cli("validate", bad)
        assert res.returncode == 3
        assert "[re, im] pairs" in res.stderr


class TestFingerprint:
    def test_bell_values(self, states):
        res = run_cli("fingerprint", states["bell"])
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        np.testing.assert_allclose(doc["power_traces"], np.ones(4), atol=1e-12)
        re_im = doc["balanced_words"]["L:(1,1)(1,1)"]
        assert abs(complex(re_im[0], re_im[1]) - 0.5) < 1e-12

    def test_block_invariant_value(self, states):
        doc = json.loads(run_cli("fingerprint", states["flat_a"]).stdout)
        val = doc["block_invariants"]["L:block(1,2):len2:type(1,1)"]
        assert abs(complex(val[0], val[1]) - 2.0) < 1e-12

    def test_byte_identical_runs(self, states):
        a = run_cli("fingerprint", states["mixed"]).stdout
        b = run_cli("fingerprint", states["mixed"]).stdout
        assert a == b


class TestCompare:
    def test_flat_pair_not_equivalent(self, states):
        res = run_cli("compare", states["flat_a"], states["flat_b"], "--json")
        assert res.returncode == 1
        doc = json.loads(res.stdout)
        assert doc["outcome"] == "not_equivalent"
        w = doc["witness"]
        assert w["kind"] == "block_invariant"
        assert abs(w["value_a"][0] - 2.0) < 1e-12
        assert abs(w["value_b"][0] - 4.0) < 1e-12

    def test_state_against_itself(self, states):
        res = run_cli("compare", states["bell"], states["bell"])
        assert res.returncode == 0

    def test_different_dims_exit_code(self, states, tmp_path):
        save_state(tmp_path / "n3.json", np.eye(9, dtype=complex) / 9, 3)
        res = run_cli("compare", states["mixed"], tmp_path / "n3.json")
        assert res.returncode == 7

    @pytest.mark.parametrize("local_dim", ["abc", None, 2.7, True])
    def test_malformed_local_dim_is_a_parse_error(self, states, tmp_path, local_dim):
        # exit 1 means "not equivalent"; a bad header is exit 3
        doc = json.loads(states["mixed"].read_text())
        doc["local_dim"] = local_dim
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main_in_process("compare", bad, states["mixed"])[0] == 3


class TestOrbitRoundTrip:
    def test_deterministic_outputs(self, states, tmp_path):
        out1, out2 = tmp_path / "o1.json", tmp_path / "o2.json"
        r1 = run_cli("orbit", states["bell"], "--seed", 3, "--out", out1)
        r2 = run_cli("orbit", states["bell"], "--seed", 3, "--out", out2)
        assert r1.returncode == r2.returncode == 0
        assert out1.read_text() == out2.read_text()
        d1, d2 = json.loads(r1.stdout), json.loads(r2.stdout)
        assert d1["u1"] == d2["u1"] and d1["output_digest"] == d2["output_digest"]

    def test_power_traces_preserved_and_equivalent(self, states, tmp_path):
        out = tmp_path / "moved.json"
        seed_doc = json.loads(
            run_cli("orbit", states["bell"], "--seed", 11, "--out", out).stdout
        )
        assert seed_doc["seed"] == 11
        fp_in = json.loads(run_cli("fingerprint", states["bell"]).stdout)
        fp_out = json.loads(run_cli("fingerprint", out).stdout)
        np.testing.assert_allclose(
            fp_in["power_traces"], fp_out["power_traces"], atol=1e-9
        )
        report = tmp_path / "report.json"
        res = run_cli(
            "compare", states["bell"], out, "--json", "--report", report
        )
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["certificate"]["residual"] <= 1e-8
        # re-verify the stored certificate through the certify subcommand
        res2 = run_cli("certify", report, states["bell"], out)
        assert res2.returncode == 0
        cert_doc = json.loads(res2.stdout)
        assert cert_doc["pass"] and cert_doc["residual"] <= 1e-8


class TestOracleCommand:
    def test_state_against_itself(self, states):
        res = run_cli(
            "oracle", states["mixed"], states["mixed"], "--restarts", 1, "--iters", 50
        )
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["converged"] and doc["best_distance"] <= 1e-10


class TestReportBytes:
    """Each kind of report is what the standard library writes for its content."""

    def test_reports_match_json_dumps(self, states, tmp_path):
        moved, report = tmp_path / "moved.json", tmp_path / "report.json"
        runs = {
            "orbit": run_cli("orbit", states["bell"], "--seed", 3, "--out", moved),
            "fingerprint": run_cli("fingerprint", states["bell"]),
            "fingerprint degenerate": run_cli("fingerprint", states["flat_a"]),
            "equivalent": run_cli(
                "compare", states["bell"], moved, "--json", "--report", report
            ),
            "not_equivalent": run_cli("compare", states["flat_a"], states["flat_b"], "--json"),
            "certify": run_cli("certify", report, states["bell"], moved),
        }
        docs = {name: json.loads(res.stdout) for name, res in runs.items()}
        assert docs["fingerprint"]["balanced_words"]
        assert docs["fingerprint degenerate"]["block_invariants"]
        assert docs["equivalent"]["certificate"] is not None
        assert docs["not_equivalent"]["witness"] is not None
        for name, res in runs.items():
            want = json.dumps(docs[name], sort_keys=True, indent=2) + "\n"
            assert res.stdout == want, name

    # name -> (local_dim, rank, degeneracy profile, seed, --tau-cap or None)
    FINGERPRINTS = {
        # two-digit labels: "(10,1)" sorts before "(2,1)" as text
        "rank 10": (4, 10, None, 19, 3),
        # singletons at positions 0, 3 and 4 map by a gather, not a shift
        "profile 1,2,1,1": (3, 5, [1, 2, 1, 1], 0, None),
        "rank 1": (2, 1, None, 0, None),
    }

    def fingerprint(self, name, tmp_path):
        """(report text, signature) of state ``name``, the report from the CLI."""
        n, rank, profile, seed, tau_cap = self.FINGERPRINTS[name]
        path = tmp_path / "state.json"
        save_state(path, lq.random_density(n, rank, profile, seed=seed).matrix, n)
        flags = [] if tau_cap is None else ["--tau-cap", tau_cap]
        code, text = main_in_process("fingerprint", path, *flags)
        assert code == 0
        tol = lq.DEFAULT_TOL if tau_cap is None else lq.DEFAULT_TOL.replace(tau_cap=tau_cap)
        return text, lq.fingerprint(load_state(path)[0], tol)

    @pytest.mark.parametrize("name", [*FINGERPRINTS, "mixed"])
    def test_fingerprint_reports_match_json_dumps(self, name, states, tmp_path):
        if name == "mixed":
            text = main_in_process("fingerprint", states["mixed"])[1]
        else:
            text = self.fingerprint(name, tmp_path)[0]
        doc = json.loads(text)
        assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert bool(doc["balanced_words"]) == (name != "mixed")
        assert bool(doc["block_invariants"]) == (name in ("mixed", "profile 1,2,1,1"))
        if name == "profile 1,2,1,1":
            assert doc["block_sizes"] == [1, 2, 1, 1]  # singletons not contiguous

    @pytest.mark.parametrize("name", ["rank 10", "profile 1,2,1,1"])
    def test_report_words_are_the_signature_words(self, name, tmp_path):
        # key for key, in the same sorted order, and every float bit for bit
        text, sig = self.fingerprint(name, tmp_path)
        words = json.loads(text)["balanced_words"]
        assert list(words) == sorted(sig.balanced_words)
        got = np.array([words[k] for k in sig.balanced_words])
        want = np.array(list(sig.balanced_words.values()))
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64).reshape(-1, 2))


class TestHelp:
    def test_exit_codes_documented(self):
        res = run_cli("--help")
        assert res.returncode == 0
        assert "Exit codes" in res.stdout
        assert "inconclusive" in res.stdout

    def test_version_exits_zero(self):
        res = run_cli("--version")
        assert res.returncode == 0
        assert res.stdout.startswith("luequiv ")


class TestUsageErrors:
    """A usage error exits 3 (parse error), never 2, which means inconclusive."""

    def test_unknown_flag(self, states):
        res = run_cli("compare", states["bell"], states["bell"], "--bogus")
        assert res.returncode == 3
        assert "unrecognized arguments: --bogus" in res.stderr

    def test_flag_the_subcommand_does_not_read(self, states):
        res = run_cli("fingerprint", states["bell"], "--json")
        assert res.returncode == 3
        assert "--json" in res.stderr

    def test_flag_without_its_value(self, states):
        res = run_cli("certify", states["bell"], states["bell"], states["bell"], "--eps-cert")
        assert res.returncode == 3


# the flags each subcommand reads, and no others
FLAGS = {
    "validate": set(),
    "fingerprint": {"--no-validate", "--tau-cap", "--eps-deg"},
    "compare": {"--report", "--json", "--no-validate", "--tau-cap", "--eps-inv",
                "--eps-cert", "--eps-deg"},
    "orbit": {"--out", "--seed"},
    "oracle": {"--restarts", "--iters", "--seed", "--no-validate"},
    "certify": {"--eps-cert", "--no-validate"},
}


class TestFlags:
    def test_each_subcommand_takes_only_the_flags_it_reads(self):
        sub = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        assert set(sub.choices) == set(FLAGS)
        for name, p in sub.choices.items():
            flags = {s for a in p._actions for s in a.option_strings if s.startswith("--")}
            assert flags - {"--help"} == FLAGS[name], name

    def test_tolerance_flags_reach_the_computation(self, states, tmp_path):
        doc = json.loads(run_cli("fingerprint", states["bell"], "--tau-cap", 1).stdout)
        assert (doc["tau_balanced"], doc["tolerances"]["tau_cap"]) == (1, 1)
        assert len(doc["tolerances"]) == 4
        report = tmp_path / "report.json"
        assert run_cli("compare", states["bell"], states["bell"], "--report", report).returncode == 0
        # the identity certificate leaves ||bell - 1/4||_F = sqrt(3)/2 between these
        assert run_cli("certify", report, states["bell"], states["mixed"]).returncode == 1
        res = run_cli("certify", report, states["bell"], states["mixed"], "--eps-cert", 0.9)
        assert res.returncode == 0 and json.loads(res.stdout)["eps_cert"] == 0.9

    def test_every_tolerance_field_has_a_flag(self):
        # a field no flag sets has one value in use, and belongs in a constant
        set_by_flags = {field for field, _ in _FLAGS.values() if field}
        assert {f.name for f in dataclasses.fields(lq.Tolerances)} == set_by_flags

    @pytest.mark.parametrize(
        "second, flag, field", [("a", "--eps-inv=nan", "eps_inv"), ("b", "--eps-deg=-1", "eps_deg")]
    )
    def test_out_of_range_tolerance_is_a_usage_error(self, tmp_path, second, flag, field):
        # once a state unequal to itself (nan), once a math domain error in decide
        a = lq.random_density(3, 4, [2, 1, 1], seed=5)
        b = lq.apply_local_unitary(a, lq.haar_unitary(3, 1), lq.haar_unitary(3, 2))
        save_state(tmp_path / "a.json", a.matrix, 3)
        save_state(tmp_path / "b.json", b.matrix, 3)
        res = run_cli("compare", tmp_path / "a.json", tmp_path / f"{second}.json", flag)
        assert res.returncode == 3 and res.stdout == ""
        assert "Traceback" not in res.stderr and field in res.stderr
        assert run_cli("compare", tmp_path / "a.json", tmp_path / f"{second}.json").returncode == 0


class TestParserReuse:
    """``main`` parses with one parser per process; no call may change it."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_every_subcommand_twice_with_usage_errors_between(self, states, tmp_path):
        moved, report = tmp_path / "moved.json", tmp_path / "report.json"
        commands = [
            ["--version"],
            ["validate", states["bell"]],
            ["fingerprint", states["flat_a"]],
            ["orbit", states["bell"], "--seed", 11, "--out", moved],
            ["compare", states["bell"], moved, "--json", "--report", report],
            ["compare", states["flat_a"], states["flat_b"], "--json"],
            ["certify", report, states["bell"], moved],
            ["oracle", states["mixed"], states["mixed"], "--restarts", 1, "--iters", 50],
        ]
        usage_errors = [
            ["compare", states["bell"], states["bell"], "--bogus"],
            ["fingerprint", states["bell"], "--json"],
            ["certify", report, states["bell"], moved, "--eps-cert"],
            ["orbit", states["bell"]],
            ["no-such-command"],
        ]
        first = [main_in_process(*argv) for argv in commands]
        assert [code for code, _ in first] == [0, 0, 0, 0, 0, 1, 0, 0]
        # the second pass runs backwards, each command after a usage error;
        # the files the first pass wrote are rewritten with the same bytes
        second = {}
        for k in reversed(range(len(commands))):
            code, out = main_in_process(*usage_errors[k % len(usage_errors)])
            assert (code, out) == (3, "")
            second[k] = main_in_process(*commands[k])
        assert [second[k] for k in range(len(commands))] == first
