"""Tests for the command-line surface: outputs, exit codes, file I/O."""

import gc
import hashlib
import io
import json
import time
from itertools import combinations
from pathlib import Path

import pytest
from click.testing import CliRunner

import orw.lowerbound
import orw.ramsey
from orw.cli import bounds_row, main
from orw.coloring import (
    CopyCertificate,
    QuotientColoring,
    certificate_to_json,
    coloring_to_json,
    decide_red_closed_omega_plus_n,
)
from orw.lowerbound import verify_lower_bound
from orw.ordinals import ONE, NodeClassId, parse, valid_classes
from orw.ramsey import builtin_record, load_ramsey_table, witness_to_json
from orw.replay import VariableSpace


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kw):
    return runner.invoke(main, args, catch_exceptions=False, **kw)


class TestBounds:
    def test_default_table_rows(self, runner):
        r = invoke(runner, ["bounds"])
        assert r.exit_code == 0
        lines = r.output.splitlines()
        assert lines[1].split()[:4] == [
            "3", "w^2*3+w*3+3", "w^2*3+w*5+1", "w^2*3+w*7+1"]
        flags = [ln.split()[-1] for ln in lines[1:7]]
        assert flags == ["yes", "yes", "yes", "yes", "yes", "no"]
        assert "external values:" in r.output
        assert "R(13,3)=59" in r.output

    def test_json_shape_and_provenance(self, runner):
        r = invoke(runner, ["bounds", "--nmax", "4", "--json"])
        doc = json.loads(r.output)
        assert [row["n"] for row in doc["rows"]] == [3, 4]
        row3 = doc["rows"][0]
        assert row3["lower"] == "w^2*3+w*3+3"
        assert row3["upper_prior"] == "w^2*4+w*2+3"
        assert row3["square_better_than_ramsey"] is True
        assert row3["ramsey_values_used"]["R(3,3)"] == {
            "value": 6, "source": "computed"}
        row4 = doc["rows"][1]
        assert row4["ramsey_values_used"]["R(5,3)"] == {
            "value": 14, "source": "external"}

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_lower_cell_is_the_verified_space(self, n):
        # one past the space `lower verify` colors
        row = bounds_row(n, load_ramsey_table())
        assert row.lower == verify_lower_bound(n).gamma + ONE

    @pytest.mark.parametrize("n", [3, 4])
    def test_upper_cells_are_the_replayed_spaces(self, n):
        # the spaces `upper replay` refutes at square-K and ramsey-K
        table = load_ramsey_table()
        row = bounds_row(n, table)
        assert row.upper_square == VariableSpace(n, n * n - 4).gamma
        k = table[2 * n - 3].value + 1
        assert row.upper_ramsey == VariableSpace(n, k).gamma

    def test_byte_identical_reruns(self, runner):
        a = invoke(runner, ["bounds", "--json"])
        b = invoke(runner, ["bounds", "--json"])
        assert a.output == b.output

    def test_nmax_validation(self, runner):
        r = invoke(runner, ["bounds", "--nmax", "2"])
        assert r.exit_code == 2

    def test_missing_value_names_it(self, runner, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"values": {"3": 6}}))
        r = invoke(runner, ["bounds", "--nmax", "4", "--table", str(p)])
        assert r.exit_code == 2
        assert "R(4,3)" in r.output

    def test_table_consistency_guard(self, runner, tmp_path):
        # a lower bound above an upper bound means the table is corrupt
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"values": {"2": 3, "3": 100}}))
        r = invoke(runner, ["bounds", "--nmax", "3", "--table", str(p)])
        assert r.exit_code == 2
        assert "lower bound" in r.output

    @pytest.mark.parametrize("value", ["6.5", "true", "Infinity", '"6"',
                                       '{"value": 6.0, "source": "x"}'])
    def test_inexact_table_value_refused(self, runner, tmp_path, value):
        # a value is never rounded, read off a string or taken from a
        # boolean; Infinity must not reach int()
        p = tmp_path / "t.json"
        p.write_text('{"values": {"3": %s}}' % value)
        r = invoke(runner, ["bounds", "--nmax", "3", "--table", str(p)])
        assert r.exit_code == 2 and r.stdout == ""
        shown = "6.0" if value.startswith("{") else value
        assert r.stderr == ("error: malformed table file: TypeError('R(3,3) "
                            f"value {shown} is not an integer')\n")

    @pytest.mark.parametrize("values, why", [
        pytest.param('{"3": {"value": 6, "source": 5}}',
                     "R(3,3) source 5 is neither computed nor external",
                     id="source-number"),
        pytest.param('{"3": {"value": 6, "source": "x"}}',
                     'R(3,3) source "x" is neither computed nor external',
                     id="source-other"),
        pytest.param('{"-3": 6, "03": 7}', 'key "-3" is not an integer n >= 1',
                     id="key-signed"),
        pytest.param('{"03": 7}', 'key "03" is not an integer n >= 1',
                     id="key-leading-zero"),
        pytest.param('{" 3 ": 6}', 'key " 3 " is not an integer n >= 1',
                     id="key-spaces"),
        pytest.param('{"0": 6, "3": 6}', 'key "0" is not an integer n >= 1',
                     id="key-zero"),
        pytest.param('{"3": 6, "3": 7}', 'key "3" is given twice',
                     id="key-twice"),
    ])
    def test_table_source_and_keys_refused(self, runner, tmp_path, values,
                                           why):
        # a source is one of the two provenance flags, and a key names its
        # n once, in one spelling; nothing is coerced with int()
        p = tmp_path / "t.json"
        p.write_text('{"values": %s}' % values)
        for command in (["ramsey", "value", "-n", "3"],
                        ["bounds", "--nmax", "3", "--json"]):
            r = invoke(runner, command + ["--table", str(p)])
            assert r.exit_code == 2 and r.stdout == "", command
            assert r.stderr == ("error: malformed table file: "
                                f"ValueError('{why}')\n")

    @pytest.mark.parametrize("values, why", [
        ('{"3": -6}', "R(3,3) value -6 is below 3"),
        ('{"2": 3, "3": 2}', "R(3,3) value 2 is below 3"),
    ], ids=["negative", "below-n"])
    def test_table_value_below_n_refused(self, runner, tmp_path, values,
                                         why):
        # `ramsey value` printed -6 as R(3,3), and `bounds` failed inside
        # its formula with "bad term (w^1)*-1"
        p = tmp_path / "t.json"
        p.write_text('{"values": %s}' % values)
        for command in (["ramsey", "value", "-n", "3"],
                        ["bounds", "--nmax", "3"]):
            r = invoke(runner, command + ["--table", str(p)])
            assert (r.exit_code, r.stdout) == (2, ""), command
            assert r.stderr == ("error: malformed table file: "
                                f"ValueError('{why}')\n")

    @pytest.mark.parametrize("text, why", [
        ('{"values": []}', "table field values is not an object"),
        ("[]", "the table is not a JSON object"),
    ], ids=["values-array", "doc-array"])
    def test_table_shape_refused_by_name(self, runner, tmp_path, text, why):
        # not an AttributeError or TypeError from indexing the wrong shape
        p = tmp_path / "t.json"
        p.write_text(text)
        for command in (["ramsey", "value", "-n", "3"],
                        ["bounds", "--nmax", "3", "--json"]):
            r = invoke(runner, command + ["--table", str(p)])
            assert (r.exit_code, r.stdout) == (2, ""), command
            assert r.stderr == ("error: malformed table file: "
                                f"TypeError('{why}')\n")


class TestLower:
    def test_verify_passes(self, runner):
        r = invoke(runner, ["lower", "verify", "-n", "3"])
        assert r.exit_code == 0
        assert "PASS" in r.output
        assert r.output.count("pass") == 5

    def test_verify_json(self, runner):
        r = invoke(runner, ["lower", "verify", "-n", "3", "--json"])
        doc = json.loads(r.output)
        assert doc["passed"] is True
        assert doc["gamma"] == "w^2*3+w*3+2"

    def test_witness_file_and_dot(self, runner, tmp_path):
        wit = tmp_path / "w.json"
        wit.write_text(witness_to_json(builtin_record(3)))
        dot = tmp_path / "g.dot"
        r = invoke(runner, ["lower", "verify", "-n", "3", "--witness",
                            str(wit), "--dot", str(dot)])
        assert r.exit_code == 0
        text = dot.read_text()
        assert text.startswith("graph")
        assert "stratum" in text

    def test_witness_run_verifies_and_builds_once(self, runner, tmp_path,
                                                  monkeypatch):
        # a record carries its one verification, and the DOT file is the
        # graph the stages checked: a witness file is verified once and the
        # construction built once; a builtin was verified at import
        calls = {}

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(orw.ramsey, "verify_witness")
        count(orw.lowerbound, "build_partition")
        count(orw.lowerbound, "build_gn")
        wit = tmp_path / "w.json"
        wit.write_text(witness_to_json(builtin_record(5)))
        dots = tmp_path / "file.dot", tmp_path / "builtin.dot"
        r = invoke(runner, ["lower", "verify", "-n", "5", "--witness",
                            str(wit), "--dot", str(dots[0])])
        assert r.exit_code == 0
        assert calls == {"verify_witness": 1, "build_partition": 1,
                         "build_gn": 1}
        calls.clear()
        r = invoke(runner, ["lower", "verify", "-n", "5", "--dot",
                            str(dots[1])])
        assert r.exit_code == 0
        assert calls == {"build_partition": 1, "build_gn": 1}
        assert dots[0].read_bytes() == dots[1].read_bytes()

    def test_bad_witness_is_input_error(self, runner, tmp_path):
        wit = tmp_path / "w.json"
        wit.write_text(json.dumps(
            {"n": 3, "order": 3, "edges": [[0, 1], [1, 2], [0, 2]]}))
        r = invoke(runner, ["lower", "verify", "-n", "3", "--witness",
                            str(wit)])
        assert r.exit_code == 2

    def test_failing_witness_message_is_pinned(self, runner, tmp_path):
        # refused on the record's report, before -n or the record's n is
        # looked at and before anything is built
        wit = tmp_path / "w.json"
        wit.write_text(json.dumps(
            {"n": 3, "order": 3, "edges": [[0, 1], [1, 2], [0, 2]]}))
        for n in ("3", "2"):
            r = invoke(runner, ["lower", "verify", "-n", n, "--witness",
                                str(wit)])
            assert (r.exit_code, r.stdout) == (2, "")
            assert r.stderr == (
                "error: witness file fails verification: WitnessReport("
                "ok=False, triangle=(0, 1, 2), independent_set=None)\n")

    def test_small_n_is_usage_error(self, runner):
        r = invoke(runner, ["lower", "verify", "-n", "2"])
        assert r.exit_code == 2

    @pytest.mark.parametrize("n", ["2", "-1"])
    def test_small_n_refused_before_gamma(self, runner, tmp_path, n):
        # refused by name before the space w^2*n+... is built, whose
        # parser would otherwise refuse "(w^2)*-1"
        wit = tmp_path / "w.json"
        wit.write_text(witness_to_json(builtin_record(3)))
        r = invoke(runner, ["lower", "verify", "-n", n, "--witness",
                            str(wit)])
        assert r.exit_code == 2 and r.stdout == ""
        assert r.stderr == f"error: construction needs n >= 3, got {n}\n"

    @pytest.mark.parametrize("file_n, n, why", [
        (4, "3", "record is for n=4, wanted 3"),
        (99, "3", "record is for n=99, wanted 3"),
        (4, "4", "the witness has no independent set of size 3"),
    ], ids=["n4-at-3", "n99-at-3", "n4-at-4"])
    def test_witness_it_cannot_build_from_refused(self, runner, tmp_path,
                                                  file_n, n, why):
        # the builtin C5 passes verification at n = 4 and 99, but has no
        # independent 3-set to put first in the construction
        wit = tmp_path / "w.json"
        doc = json.loads(witness_to_json(builtin_record(3)))
        wit.write_text(json.dumps(dict(doc, n=file_n)))
        r = invoke(runner, ["lower", "verify", "-n", n, "--witness",
                            str(wit)])
        assert (r.exit_code, r.stdout) == (2, "")
        assert r.stderr == f"error: {why}\n"

    def test_witness_n_below_1_is_malformed(self, runner, tmp_path):
        wit = tmp_path / "w.json"
        doc = json.loads(witness_to_json(builtin_record(3)))
        wit.write_text(json.dumps(dict(doc, n=-1)))
        r = invoke(runner, ["lower", "verify", "-n", "3", "--witness",
                            str(wit)])
        assert r.exit_code == 2
        assert r.stderr == ("error: malformed witness file: RamseyError("
                            "'the search needs n >= 1, got -1')\n")


class TestUpper:
    def test_replay_square(self, runner):
        r = invoke(runner, ["upper", "replay", "-n", "3", "--k", "square"])
        assert r.exit_code == 0
        assert "status=unsat" in r.output
        assert "trace_verified=True" in r.output

    def test_replay_json(self, runner):
        r = invoke(runner, ["upper", "replay", "-n", "3", "--k", "ramsey",
                            "--json"])
        doc = json.loads(r.output)
        assert doc["status"] == "unsat" and doc["k"] == 7
        assert doc["ramsey_used"]["source"] == "computed"

    @pytest.mark.parametrize("extra,code,digest", [
        ((), 0,
         "48b58e93e1301bec3141fd4816e8ead9ed093ca4f97bf2314cf10394a67d7c30"),
        (("--drop", "C8"), 1,
         "0343dc90f4e8af3858c6c30d2320ac3406cadffba810b5f397abfe5b3d57a020"),
    ])
    def test_replay_json_bytes_are_pinned(self, runner, extra, code, digest):
        # the digests pin the whole report (search counters, trace size,
        # verdicts, model), so a change to the search or the report shows
        r = invoke(runner, ["upper", "replay", "-n", "3", "--k", "square",
                            "--json", *extra])
        assert r.exit_code == code
        assert hashlib.sha256(r.output.encode()).hexdigest() == digest

    def test_drop_gives_model_and_failure_code(self, runner):
        r = invoke(runner, ["upper", "replay", "-n", "3", "--k", "ramsey",
                            "--drop", "C8"])
        assert r.exit_code == 1
        assert "status=sat" in r.output
        assert '"tilde"' in r.output  # the model is the diagnostic artifact

    def test_unknown_drop(self, runner):
        r = invoke(runner, ["upper", "replay", "-n", "3", "--k", "square",
                            "--drop", "C99"])
        assert r.exit_code == 2

    def test_drop_twice_refused(self, runner):
        # refused by name, not replayed with the schema listed twice
        r = invoke(runner, ["upper", "replay", "-n", "3", "--k", "square",
                            "--drop", "C8", "--drop", "C8", "--json"])
        assert (r.exit_code, r.stdout) == (2, "")
        assert r.stderr == "error: schema 'C8' dropped twice\n"

    @pytest.mark.parametrize("args", [
        ["replay", "-n", "7", "--k", "square"],
        ["export", "-n", "6", "--k", "square", "-o", "never-written"],
        ["replay", "-n", "2000", "--k", "square"],
        ["replay", "-n", "1000000", "--k", "square"],
        ["export", "-n", "1000000", "--k", "square", "-o", "never-written"],
        ["replay", "-n", "1000000", "--k", "square", "--drop", "C8"],
    ])
    def test_oversized_catalogue_refused_before_building(self, runner, args,
                                                         tmp_path):
        # (7,45) would hold 177 076 742 clauses and (6,32) 3 816 276; both
        # spaces fit, so each is refused from its exact closed-form count,
        # without building it. The variable count is checked before the
        # clause count, so the n = 2000 and n = 10^6 catalogues are refused
        # for their space whatever is dropped (the exact C8 count
        # comb(n+K, n) at n = 10^6 would take minutes)
        refusal = {
            "7": "the catalogue at n=7 K=45 has 177076742 clauses, more "
                 "than the limit of 1000000",
            "6": "the catalogue at n=6 K=32 has 3816276 clauses, more than "
                 "the limit of 1000000",
            "2000": "the variable space at n=2000 K=3999996 has "
                    "32047945947040 variables, more than the limit of "
                    "100000",
            "1000000": "the variable space at n=1000000 K=999999999996 has "
                       "2000005999986499973500040 variables, more than the "
                       "limit of 100000",
        }
        start = time.perf_counter()
        with runner.isolated_filesystem(temp_dir=tmp_path):
            r = invoke(runner, ["upper", *args])
        assert time.perf_counter() - start < 1.0
        assert r.exit_code == 2 and r.stdout == ""
        assert r.stderr == f"error: {refusal[args[2]]}\n"
        assert not any(tmp_path.rglob("never-written*"))

    def test_oversized_space_refused_before_building(self, runner, tmp_path):
        # with every schema dropped the catalogue is empty, but the
        # (2000, 3 999 996) space would hold about 3.2e13 variables
        drops = [arg for i in range(1, 15) for arg in ("--drop", f"C{i}")]
        start = time.perf_counter()
        with runner.isolated_filesystem(temp_dir=tmp_path):
            r = invoke(runner, ["upper", "replay", "-n", "2000", "--k",
                                "square", *drops])
        assert time.perf_counter() - start < 1.0
        assert r.exit_code == 2 and r.stdout == ""
        assert r.stderr == ("error: the variable space at n=2000 K=3999996 "
                            "has 32047945947040 variables, more than the "
                            "limit of 100000\n")

    def test_budget_exhaustion(self, runner):
        r = invoke(runner, ["upper", "replay", "-n", "3", "--k", "square",
                            "--budget", "5"])
        assert r.exit_code == 2
        assert "budget" in r.output

    def test_budget_exhaustion_message_is_pinned(self, runner):
        r = invoke(runner, ["upper", "replay", "-n", "3", "--k", "square",
                            "--budget", "5"])
        assert (r.exit_code, r.stdout) == (2, "")
        assert r.stderr == "error: node budget exhausted after 6 decisions\n"

    def test_negative_budget_refused_before_building(self, runner):
        # not reported as an exhausted budget after a first decision
        r = invoke(runner, ["upper", "replay", "-n", "3", "--k", "square",
                            "--budget", "-1"])
        assert (r.exit_code, r.stdout) == (2, "")
        assert r.stderr == "error: budget must be >= 0, got -1\n"

    def test_export_writes_pair(self, runner, tmp_path):
        base = tmp_path / "sys"
        r = invoke(runner, ["upper", "export", "-n", "3", "--k", "ramsey",
                            "-o", str(base)])
        assert r.exit_code == 0
        cnf = (tmp_path / "sys.cnf").read_text().splitlines()
        assert cnf[1] == "p cnf 243 2409"
        side = json.loads((tmp_path / "sys.json").read_text())
        assert len(side["clauses"]) == 2409


class TestSurface:
    """The CLI's inputs: every parameter pinned, the removed ones refused."""

    @staticmethod
    def _params(cmd, path=()):
        """{command path: parameter names}, for each command with any."""
        out = {}
        if cmd.params:
            out[" ".join(path)] = [p.name for p in cmd.params]
        for name, sub in getattr(cmd, "commands", {}).items():
            out.update(TestSurface._params(sub, path + (name,)))
        return out

    def test_parameter_names_are_pinned(self):
        # a knob added or removed must edit this table
        assert self._params(main) == {
            "bounds": ["nmax", "table_path", "as_json"],
            "lower verify": ["n", "witness_path", "dot_path", "as_json"],
            "upper replay": ["n", "k_choice", "budget", "dropped",
                             "table_path", "as_json"],
            "upper export": ["n", "k_choice", "out_base", "table_path"],
            "ramsey value": ["n", "table_path", "as_json"],
            "ramsey brute": ["n", "as_json"],
            "ramsey verify": ["n", "witness_path", "as_json"],
            "ramsey export": ["n", "out_path"],
            "ordinal eval": ["expr", "as_json"],
            "coloring decide": ["file", "n", "as_json"],
            "coloring check": ["file", "cert_path", "as_json"],
        }

    @pytest.mark.parametrize("command", [
        ["upper", "replay", "-n", "3", "--k", "ramsey"],
        ["upper", "export", "-n", "3", "--k", "ramsey", "-o", "never-written"],
    ])
    def test_upper_witness_is_not_an_option(self, runner, tmp_path, command):
        # a witness bounds R(2n-3,3) below; it cannot set the value K reads
        wit = tmp_path / "w.json"
        wit.write_text(witness_to_json(builtin_record(3)))
        with runner.isolated_filesystem(temp_dir=tmp_path):
            r = invoke(runner, command + ["--witness", str(wit)])
        assert (r.exit_code, r.stdout) == (2, "")
        assert "No such option" in r.stderr and "--witness" in r.stderr
        assert not any(tmp_path.rglob("never-written*"))

    def test_control_is_not_optional(self, runner):
        r = invoke(runner, ["lower", "verify", "-n", "3", "--no-control"])
        assert (r.exit_code, r.stdout) == (2, "")
        assert "No such option" in r.stderr and "--no-control" in r.stderr

    def test_table_is_not_read_from_the_environment(self, runner, tmp_path):
        # this table would flag R(3,3) external; only --table reads a file
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"values": {"2": 3, "3": 6}}))
        args = ["bounds", "--nmax", "3", "--json"]
        plain = invoke(runner, args)
        r = invoke(runner, args, env={"ORW_TABLE": str(p)})
        assert r.exit_code == plain.exit_code == 0
        assert r.stdout == plain.stdout
        flagged = invoke(runner, args + ["--table", str(p)])
        assert flagged.exit_code == 0 and '"external"' in flagged.stdout
        assert '"external"' not in plain.stdout


class TestRamsey:
    def test_value_human(self, runner):
        r = invoke(runner, ["ramsey", "value", "-n", "5"])
        assert r.output.strip() == "R(5,3) = 14 (external)"

    def test_value_r23_computed(self, runner):
        # the packaged table has no R(2,3); the lookup computes it, as
        # `bounds` does for the prior bound at n = 3
        r = invoke(runner, ["ramsey", "value", "-n", "2"])
        assert (r.exit_code, r.stdout, r.stderr) == (
            0, "R(2,3) = 3 (computed)\n", "")

    @pytest.mark.parametrize("values, why", [
        pytest.param('{"2": {"value": 5, "source": "computed"}, "3": 6, '
                     '"4": 9}',
                     "'R(2,3) value 5 is not the computed value 3'",
                     id="wrong-value"),
        pytest.param('{"5": {"value": 14, "source": "computed"}}',
                     '\'R(5,3) is not computed in-tree; its source must be '
                     '"external"\'', id="beyond-the-search"),
    ])
    def test_false_computed_claim_refused(self, runner, tmp_path, values,
                                          why):
        # `bounds` printed the R(2,3) = 5 table's prior bound, and its
        # external-values line, naming only R(3,3), passed the 5 as computed
        p = tmp_path / "t.json"
        p.write_text('{"values": %s}' % values)
        for command in (["ramsey", "value", "-n", "3"],
                        ["bounds", "--nmax", "3"]):
            r = invoke(runner, command + ["--table", str(p)])
            assert (r.exit_code, r.stdout) == (2, ""), command
            assert r.stderr == (
                f"error: malformed table file: ValueError({why})\n")

    def test_value_missing(self, runner):
        r = invoke(runner, ["ramsey", "value", "-n", "20"])
        assert r.exit_code == 2 and "R(20,3)" in r.output

    @pytest.mark.parametrize("n", [0, -1])
    def test_value_below_one_refused(self, runner, n):
        # no table may hold the key "0", so the refusal does not ask for one
        r = invoke(runner, ["ramsey", "value", "-n", str(n)])
        assert (r.exit_code, r.stdout, r.stderr) == (
            2, "", f"error: R(n,3) needs n >= 1, got {n}\n")

    def test_brute_human_and_json(self, runner):
        r = invoke(runner, ["ramsey", "brute", "-n", "3"])
        assert "R(3,3) = 6" in r.output
        r = invoke(runner, ["ramsey", "brute", "-n", "3", "--json"])
        doc = json.loads(r.output)
        assert doc["order"] == 5 and len(doc["edges"]) == 5

    @pytest.mark.parametrize("n,digest", [
        (2, "2d19a818ff3619a29f41637576879c6737e0ee67934c721dd7b3ccdb413d82ea"),
        (3, "830399d25eb466b9f7df3cfafdf141f0de395e49b501173df6d7a3f11306ee0a"),
        (4, "f5bc6f0632496efb64865899546a7ccd35fb18460c4ab199711077f0cd112d7a"),
    ])
    def test_brute_json_bytes_are_pinned(self, runner, n, digest):
        # the witness is the first survivor the search keeps for the least
        # canonical form, so these bytes pin the search order too
        r = invoke(runner, ["ramsey", "brute", "-n", str(n), "--json"])
        assert r.exit_code == 0
        assert hashlib.sha256(r.stdout_bytes).hexdigest() == digest

    def test_export_then_verify(self, runner, tmp_path):
        p = tmp_path / "w4.json"
        assert invoke(runner, ["ramsey", "export", "-n", "4", "-o",
                               str(p)]).exit_code == 0
        r = invoke(runner, ["ramsey", "verify", "-n", "4", "--witness",
                            str(p), "--json"])
        assert r.exit_code == 0
        assert json.loads(r.output)["ok"] is True

    def test_verify_failure_is_math_error(self, runner, tmp_path):
        p = tmp_path / "tri.json"
        p.write_text(json.dumps(
            {"n": 3, "order": 3, "edges": [[0, 1], [1, 2], [0, 2]]}))
        r = invoke(runner, ["ramsey", "verify", "-n", "3", "--witness",
                            str(p)])
        assert r.exit_code == 1
        assert "triangle" in r.output

    def test_verify_large_independent_set(self, runner, tmp_path):
        # the set is found one pick per vertex, past the recursion limit
        p = tmp_path / "edgeless.json"
        p.write_text(json.dumps({"n": 3, "order": 3000, "edges": []}))
        r = invoke(runner, ["ramsey", "verify", "-n", "2000", "--witness",
                            str(p)])
        assert (r.exit_code, r.stderr) == (1, "")
        assert r.stdout == f"FAIL: independent set {tuple(range(2000))}\n"

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_verify_n_below_1_is_input_error(self, runner, tmp_path, n):
        # an input error, not a verdict: with -1 every triangle-free graph
        # would read "ok", with 0 none would
        p = tmp_path / "w3.json"
        p.write_text(witness_to_json(builtin_record(3)))
        r = invoke(runner, ["ramsey", "verify", "-n", n, "--witness",
                            str(p), "--json"])
        assert r.exit_code == 2 and r.stdout == ""
        assert r.stderr == f"error: the search needs n >= 1, got {n}\n"

    def test_verify_malformed_is_input_error(self, runner, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("{nope")
        r = invoke(runner, ["ramsey", "verify", "-n", "3", "--witness",
                            str(p)])
        assert r.exit_code == 2

    @pytest.mark.parametrize("change, why", [
        ({"edges": [[0, True]]}, "edge endpoint true"),
        ({"edges": [[3, 4.9]]}, "edge endpoint 4.9"),
        ({"order": float("inf")}, "order Infinity"),
        ({"order": "5"}, 'order "5"'),
    ])
    @pytest.mark.parametrize("command", [["ramsey", "verify", "-n", "3"],
                                         ["lower", "verify", "-n", "3"]])
    def test_inexact_witness_refused(self, runner, tmp_path, command, change,
                                     why):
        # the builtin order-5 witness with one value changed; [0, true]
        # must not be read as the edge (0, 1)
        doc = json.loads(witness_to_json(builtin_record(3)))
        if "edges" in change:
            doc["edges"][0] = change["edges"][0]
        else:
            doc.update(change)
        p = tmp_path / "w.json"
        p.write_text(json.dumps(doc))
        r = invoke(runner, command + ["--witness", str(p)])
        assert r.exit_code == 2 and r.stdout == ""
        assert r.stderr == ("error: malformed witness file: "
                            f"TypeError('{why} is not an integer')\n")

    def test_witness_n_and_edge_shape_refused(self, runner, tmp_path):
        # both readers read the file's n, though ramsey verify checks -n
        p = tmp_path / "w.json"
        doc = json.loads(witness_to_json(builtin_record(3)))
        no_n = {k: v for k, v in doc.items() if k != "n"}
        for text, why in [(json.dumps(dict(doc, n=3.0)),
                           "TypeError('n 3.0 is not an integer')"),
                          (json.dumps(no_n), "KeyError('n')")]:
            p.write_text(text)
            for command in (["ramsey", "verify"], ["lower", "verify"]):
                r = invoke(runner, command + ["-n", "3", "--witness", str(p)])
                assert (r.exit_code, r.stdout) == (2, ""), command
                assert r.stderr == f"error: malformed witness file: {why}\n"
        p.write_text(json.dumps(dict(doc, edges=[[0, 1, 2]])))
        for command in (["ramsey", "verify"], ["lower", "verify"]):
            r = invoke(runner, command + ["-n", "3", "--witness", str(p)])
            assert r.exit_code == 2
            assert r.stderr == ("error: malformed witness file: "
                                "TypeError('edge [0, 1, 2] is not a pair')\n")

    @pytest.mark.parametrize("command", [
        ["ramsey", "verify", "-n", "3"],
        ["lower", "verify", "-n", "3"],
    ])
    def test_witness_order_over_the_limit_refused(self, runner, tmp_path,
                                                  command):
        # well-formed, so not "malformed": refused for its order before
        # any adjacency list is built
        p = tmp_path / "w.json"
        p.write_text(json.dumps({"n": 3, "order": 10_001, "edges": []}))
        start = time.perf_counter()
        with runner.isolated_filesystem(temp_dir=tmp_path):
            r = invoke(runner, command + ["--witness", str(p)])
        assert time.perf_counter() - start < 1.0
        assert r.exit_code == 2 and r.stdout == ""
        assert r.stderr == ("error: the witness has order 10001, more than "
                            "the limit of 10000\n")
        assert not any(tmp_path.rglob("never-written*"))

    @pytest.mark.parametrize("edges, why", [
        ([[0, 9], [1, 2]], "bad edge (0,9) for order 5"),
        ([[0, 0], [1, 2]], "loop at vertex 0")], ids=["bad-edge", "loop"])
    @pytest.mark.parametrize("command", [
        ["ramsey", "verify", "-n", "3"],
        ["lower", "verify", "-n", "3"],
    ])
    def test_graph_refusals_are_one_message(self, runner, tmp_path, command,
                                            edges, why):
        # every command that reads a witness calls the file malformed
        p = tmp_path / "w.json"
        p.write_text(json.dumps({"n": 3, "order": 5, "edges": edges}))
        with runner.isolated_filesystem(temp_dir=tmp_path):
            r = invoke(runner, command + ["--witness", str(p)])
        assert (r.exit_code, r.stdout) == (2, "")
        assert r.stderr == ("error: malformed witness file: "
                            f"RamseyError('{why}')\n")
        assert not any(tmp_path.rglob("never-written*"))

    @pytest.mark.parametrize("doc, why", [
        ({"n": 3, "order": 5, "edges": "01"},
         "witness field edges is not a list"),
        ({"n": 3, "order": 5, "edges": {"01": 1}},
         "witness field edges is not a list"),
        ({"n": 3, "order": 5, "edges": 5}, "witness field edges is not a list"),
        ([], "the witness is not a JSON object"),
        ({"n": 3, "order": 5, "edges": ["23"]}, 'edge "23" is not a pair'),
        ({"n": 3, "order": 5, "edges": [{"a": 1, "b": 2}]},
         'edge {"a": 1, "b": 2} is not a pair'),
    ], ids=["edges-string", "edges-object", "edges-number", "doc-array",
            "edge-string", "edge-object"])
    @pytest.mark.parametrize("command", [
        ["ramsey", "verify", "-n", "3"],
        ["lower", "verify", "-n", "3"],
    ])
    def test_witness_shape_refused_by_name(self, runner, tmp_path, command,
                                           doc, why):
        # a string was read one character an edge, an object key by key
        p = tmp_path / "w.json"
        p.write_text(json.dumps(doc))
        with runner.isolated_filesystem(temp_dir=tmp_path):
            r = invoke(runner, command + ["--witness", str(p)])
        assert (r.exit_code, r.stdout) == (2, "")
        assert r.stderr == ("error: malformed witness file: "
                            f"TypeError({why!r})\n")
        assert not any(tmp_path.rglob("never-written*"))

    def test_export_unknown_builtin(self, runner, tmp_path):
        r = invoke(runner, ["ramsey", "export", "-n", "7", "-o",
                            str(tmp_path / "w.json")])
        assert r.exit_code == 2


class TestOrdinal:
    def test_eval_normalizes(self, runner):
        r = invoke(runner, ["ordinal", "eval", "w^2*2 + w"])
        assert r.output.strip() == "w^2*2+w"
        r = invoke(runner, ["ordinal", "eval", "w*3+5+w"])
        assert r.output.strip() == "w*4"

    def test_eval_json(self, runner):
        r = invoke(runner, ["ordinal", "eval", "w^2+3", "--json"])
        doc = json.loads(r.output)
        assert doc == {"input": "w^2+3", "canonical": "w^2+3",
                       "cb_rank": 0, "kind": "successor"}

    def test_parse_error(self, runner):
        r = invoke(runner, ["ordinal", "eval", "x+y"])
        assert r.exit_code == 2

    @pytest.mark.parametrize("expr, why", [
        ("9" * 5000, "number too long to read (at position 0)"),
        ("9" * 4300 + "+1", "sum too long to print (at position 4302)"),
        ("w^" + "9" * 5000, "number too long to read (at position 2)"),
    ], ids=["number", "sum", "exponent"])
    def test_number_past_the_digit_limit_refused(self, runner, expr, why):
        # int() cannot read the number, or str() cannot print the sum
        r = invoke(runner, ["ordinal", "eval", expr])
        assert (r.exit_code, r.stdout, r.stderr) == (2, "", f"error: {why}\n")

    def test_number_at_the_digit_limit_printed(self, runner):
        r = invoke(runner, ["ordinal", "eval", "9" * 4300])
        assert (r.exit_code, r.stdout) == (0, "9" * 4300 + "\n")


def _pair(a, b, color):
    return {"a": a, "b": b, "color": color}


def _malformed(exc: str) -> str:
    return f"error: malformed coloring file: {exc}\n"


# One file per refusal the coloring loader prints, pinned byte for byte.
# Classes of w*2: (1,0), (1,1), (2,0), (2,1).
_NONNUMERIC = "ValueError(\"invalid literal for int() with base 10: 'a'\")"
LOADER_REFUSALS = [
    pytest.param({}, _malformed("KeyError('gamma')"), id="gamma-missing"),
    pytest.param({"gamma": "0"}, _malformed(
        "OrdinalError('coloring needs a nonzero gamma')"), id="gamma-zero"),
    pytest.param({"gamma": "w^"}, _malformed(
        "OrdinalParseError('expected a number (at position 2)')"),
        id="gamma-unparsable"),
    pytest.param({"gamma": "w*2", "within": [
        {"class": [1, 0, 0], "color": 0}]}, _malformed(
        "ValueError('too many values to unpack (expected 2)')"),
        id="class-wrong-length"),
    pytest.param({"gamma": "w*2", "within": [
        {"class": ["a", 0], "color": 0}]}, _malformed(_NONNUMERIC),
        id="class-nonnumeric"),
    pytest.param({"gamma": "w*2", "within": [
        {"class": [9, 0], "color": 0}]}, _malformed(
        "OrdinalError('within references invalid class "
        "NodeClassId(index=9, level=0)')"), id="within-not-in-gamma"),
    pytest.param({"gamma": "w*2", "cross": [_pair([1, 0], [1, 0], 1)]},
                 _malformed("OrdinalError('cross references invalid pair "
                            "((1, 0), (1, 0))')"), id="cross-equal-classes"),
    pytest.param({"gamma": "w*2", "cross": [_pair([1, 0], [9, 0], 1)]},
                 _malformed("OrdinalError('cross references invalid pair "
                            "((1, 0), (9, 0))')"), id="cross-not-in-gamma"),
    pytest.param({"gamma": "w*2", "cross": [_pair([1, 0], [2, 0], 1),
                                            _pair([2, 0], [1, 0], 0)]},
                 _malformed("OrdinalError('conflicting cross colors for "
                            "(NodeClassId(index=1, level=0), "
                            "NodeClassId(index=2, level=0))')"),
                 id="cross-reversed-conflict"),
    pytest.param({"gamma": "w*2", "overrides": [_pair("3", "3", 1)]},
                 _malformed("OrdinalError('override on a degenerate pair 3')"),
                 id="override-degenerate"),
    pytest.param({"gamma": "w*2", "overrides": [_pair("3", "w*2", 1)]},
                 _malformed("OrdinalError('override pair 3,w*2 not below "
                            "w*2')"), id="override-not-below-gamma"),
    pytest.param({"gamma": "w*2", "overrides": [_pair("3", "w", 1),
                                                _pair("w", "3", 0)]},
                 _malformed("OrdinalError(\"conflicting overrides for "
                            "(Ordinal('3'), Ordinal('w'))\")"),
                 id="override-reversed-conflict"),
    pytest.param({"gamma": "w*2", "overrides": [_pair("3", "w+", 1)]},
                 _malformed("OrdinalParseError('expected a term (at "
                            "position 2)')"), id="override-unparsable"),
    pytest.param({"gamma": "w*2", "within": [{"class": [1, 0], "color": 2}]},
                 _malformed("OrdinalError('color 2 is not 0 or 1')"),
                 id="color-2"),
    # a blue triangle whose point could not be printed in its certificate
    pytest.param({"gamma": "w*2", "overrides": [
        _pair("9" * 4300 + "+1", "0", 1), _pair("9" * 4300 + "+1", "1", 1),
        _pair("0", "1", 1)]}, _malformed(
        "OrdinalParseError('sum too long to print (at position 4302)')"),
        id="override-too-long-to-print"),
    # entries are read in order, each whole: a class is checked before
    # the next entry's key is read
    pytest.param({"gamma": "w*2", "within": [
        {"class": [9, 0], "color": 0}, {"class": ["a", 0], "color": 0}]},
        _malformed("OrdinalError('within references invalid class "
                   "NodeClassId(index=9, level=0)')"),
        id="within-class-before-next-key"),
    # a color is checked with its entry, before any later table
    pytest.param({"gamma": "w*2",
                  "within": [{"class": [1, 0], "color": 2}],
                  "overrides": [_pair("3", "3", 1)]},
                 _malformed("OrdinalError('color 2 is not 0 or 1')"),
                 id="colors-before-overrides"),
]

_CLASS_10 = "NodeClassId(index=1, level=0)"
_CROSS_CONFLICT = _malformed(
    f"OrdinalError('conflicting cross colors for ({_CLASS_10}, "
    "NodeClassId(index=2, level=0))')")
# A key given twice with two colors is refused in either entry order.
DUPLICATE_REFUSALS = [
    pytest.param({"gamma": "w*2", "cross": [_pair([1, 0], [2, 0], 1),
                                            _pair([1, 0], [2, 0], 0)]},
                 _CROSS_CONFLICT, id="cross"),
    pytest.param({"gamma": "w*2", "cross": [_pair([2, 0], [1, 0], 1),
                                            _pair([2, 0], [1, 0], 0)]},
                 _CROSS_CONFLICT, id="cross-written-high-first"),
    pytest.param({"gamma": "w*2", "overrides": [_pair("3", "w", 1),
                                                _pair("3", "w", 0)]},
                 _malformed("OrdinalError(\"conflicting overrides for "
                            "(Ordinal('3'), Ordinal('w'))\")"),
                 id="overrides"),
    pytest.param({"gamma": "w*2", "within": [{"class": [1, 0], "color": 1},
                                             {"class": [1, 0], "color": 0}]},
                 _malformed(f"OrdinalError('conflicting within colors for "
                            f"{_CLASS_10}')"), id="within"),
]
# A value int() would read as an integer is not one: each is refused.
INEXACT_REFUSALS = [
    pytest.param({"gamma": "w*2", "within": [{"class": [1.9, 0], "color": 1}]},
                 _malformed("OrdinalError('class [1.9, 0] is not a pair of "
                            "integers')"), id="class-float"),
    pytest.param({"gamma": "w*2", "cross": [_pair(["2", "0"], [1, 0], 1)]},
                 _malformed("OrdinalError('class [\"2\", \"0\"] is not a "
                            "pair of integers')"), id="class-strings"),
    pytest.param({"gamma": "w*2", "within": [{"class": [True, 0], "color": 1}]},
                 _malformed("OrdinalError('class [true, 0] is not a pair of "
                            "integers')"), id="class-bool"),
    pytest.param({"gamma": "w*2", "within": [{"class": [1, 0], "color": 0.5}]},
                 _malformed("OrdinalError('color 0.5 is not 0 or 1')"),
                 id="color-half"),
    pytest.param({"gamma": "w*2", "within": [{"class": [1, 0], "color": "1"}]},
                 _malformed("OrdinalError('color \"1\" is not 0 or 1')"),
                 id="color-string"),
    pytest.param({"gamma": "w*2", "cross": [_pair([1, 0], [2, 0], True)]},
                 _malformed("OrdinalError('color true is not 0 or 1')"),
                 id="color-bool"),
    # int() fails on Infinity without a refusal of its own
    pytest.param({"gamma": "w*2", "within": [
        {"class": [1, 0], "color": float("inf")}]},
        _malformed("OrdinalError('color Infinity is not 0 or 1')"),
        id="color-infinity"),
    pytest.param({"gamma": True}, _malformed(
        "OrdinalError('gamma true is not an ordinal')"), id="gamma-bool"),
    pytest.param({"gamma": "w*2", "overrides": [_pair(True, "w", 1)]},
                 _malformed("OrdinalError('point true is not an ordinal')"),
                 id="point-bool"),
]
# A class or color that is no JSON integer is refused by name, not with
# the message of a Python call that tried to read it.
NAMED_VALUE_REFUSALS = [
    pytest.param({"gamma": "w*2", "within": [{"class": 5, "color": 1}]},
                 _malformed("OrdinalError('class 5 is not a pair of "
                            "integers')"), id="class-number"),
    pytest.param({"gamma": "w*2", "within": [{"class": "ab", "color": 1}]},
                 _malformed("OrdinalError('class \"ab\" is not a pair of "
                            "integers')"), id="class-not-a-list"),
    pytest.param({"gamma": "w*2", "within": [{"class": [1, 0], "color": "a"}]},
                 _malformed("OrdinalError('color \"a\" is not 0 or 1')"),
                 id="color-letter"),
    pytest.param({"gamma": "w*2", "within": [{"class": [1, 0], "color": None}]},
                 _malformed("OrdinalError('color null is not 0 or 1')"),
                 id="color-null"),
    pytest.param({"gamma": "w*2", "cross": [_pair([1, 0], [2, 0], [1])]},
                 _malformed("OrdinalError('color [1] is not 0 or 1')"),
                 id="cross-color-array"),
]
# gamma and every point is a JSON string or integer; no other value is
# read, and none reaches the parser's own messages.
POINT_REFUSALS = [
    pytest.param({"gamma": "w*2", "overrides": [_pair(1.5, "w", 1)]},
                 _malformed("OrdinalError('point 1.5 is not an ordinal')"),
                 id="point-float"),
    pytest.param({"gamma": "w*2", "overrides": [_pair("3", None, 1)]},
                 _malformed("OrdinalError('point null is not an ordinal')"),
                 id="point-null"),
    pytest.param({"gamma": "w*2", "overrides": [_pair([3], "w", 1)]},
                 _malformed("OrdinalError('point [3] is not an ordinal')"),
                 id="point-array"),
    pytest.param({"gamma": 2.5}, _malformed(
        "OrdinalError('gamma 2.5 is not an ordinal')"), id="gamma-float"),
    pytest.param({"gamma": None}, _malformed(
        "OrdinalError('gamma null is not an ordinal')"), id="gamma-null"),
]
# A table that is not a JSON list is refused whole, named, never read as
# empty or walked key by key.
TABLE_REFUSALS = [
    pytest.param({"gamma": "w*2", name: table},
                 _malformed(f"OrdinalError('table {name} is not a list')"),
                 id=f"{name}-{kind}")
    for name in ("within", "cross", "overrides")
    for kind, table in (("object", {}), ("string", ""), ("keyed", {"a": 1}),
                        ("null", None))
]

# A document or table entry that is not a JSON object is refused by name.
NOT_AN_OBJECT_REFUSALS = [
    pytest.param(doc, _malformed(
        "TypeError('the coloring is not a JSON object')"), id=f"doc-{kind}")
    for kind, doc in (("array", []), ("string", "x"), ("null", None),
                      ("number", 3))
] + [
    pytest.param({"gamma": "w+1", name: [entry]}, _malformed(
        f"OrdinalError('an entry of table {name} is not an object')"),
        id=f"{name}-{kind}")
    for name in ("within", "cross", "overrides")
    for kind, entry in (("number", 5), ("array", []), ("string", "x"),
                        ("null", None))
]


class TestColoring:
    @pytest.fixture
    def files(self, tmp_path):
        gamma = parse("w^2*2+1")
        classes = valid_classes(gamma)
        red = QuotientColoring.build(gamma)
        blue = QuotientColoring.build(
            gamma, within=dict.fromkeys(classes, 1),
            cross=dict.fromkeys(combinations(classes, 2), 1))
        paths = {}
        for name, c in [("red", red), ("blue", blue)]:
            p = tmp_path / f"{name}.json"
            p.write_text(coloring_to_json(c))
            paths[name] = str(p)
        cert = decide_red_closed_omega_plus_n(red, 3)
        p = tmp_path / "cert.json"
        p.write_text(certificate_to_json(cert))
        paths["cert"] = str(p)
        return paths

    def test_decide_finds_copy(self, runner, files):
        r = invoke(runner, ["coloring", "decide", files["red"], "-n", "3"])
        assert r.exit_code == 1
        assert "red closed omega+3" in r.output

    def test_decide_json_none_fields(self, runner, files):
        r = invoke(runner, ["coloring", "decide", files["blue"], "-n", "3",
                            "--json"])
        doc = json.loads(r.output)
        assert r.exit_code == 1  # all-blue has a blue triple
        assert doc["blue_triple"] is not None
        assert doc["red_omega_plus_n"] is None

    def test_check_valid(self, runner, files):
        r = invoke(runner, ["coloring", "check", files["red"],
                            "--certificate", files["cert"]])
        assert r.exit_code == 0
        assert "valid" in r.output

    def test_check_against_wrong_coloring(self, runner, files):
        r = invoke(runner, ["coloring", "check", files["blue"],
                            "--certificate", files["cert"]])
        assert r.exit_code == 1

    def test_check_rejects_override_deep_in_the_tail(self, runner, tmp_path):
        # the 30th tail point toward w is blue to the limit
        c = QuotientColoring.build("w^2", overrides={("30", "w"): 1})
        cert = CopyCertificate(
            kind="red-omega-plus-n", tail_class=NodeClassId(1, 0),
            limit_point=parse("w"), top_points=(parse("w*2"),))
        (tmp_path / "c.json").write_text(coloring_to_json(c))
        (tmp_path / "cert.json").write_text(certificate_to_json(cert))
        r = invoke(runner, ["coloring", "check", str(tmp_path / "c.json"),
                            "--certificate", str(tmp_path / "cert.json")])
        assert r.exit_code == 1
        assert "INVALID red-omega-plus-n" in r.output

    def test_malformed_files(self, runner, files, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        r = invoke(runner, ["coloring", "check", str(bad),
                            "--certificate", files["cert"]])
        assert r.exit_code == 2
        assert r.output == "error: malformed coloring file: KeyError('gamma')\n"
        r = invoke(runner, ["coloring", "check", files["red"],
                            "--certificate", str(bad)])
        assert r.exit_code == 2

    @pytest.mark.parametrize("doc, stderr", LOADER_REFUSALS)
    def test_loader_refusals_are_pinned(self, runner, tmp_path, doc, stderr):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        r = invoke(runner, ["coloring", "decide", str(path), "-n", "2"])
        assert (r.exit_code, r.stdout, r.stderr) == (2, "", stderr)

    def test_integer_points_accepted(self, runner, tmp_path):
        path = tmp_path / "ints.json"
        path.write_text(json.dumps({"gamma": 5, "overrides": [
            _pair(0, 1, 1), _pair(1, 2, 1), _pair(0, 2, 1)]}))
        r = invoke(runner, ["coloring", "decide", str(path), "-n", "2",
                            "--json"])
        assert r.exit_code == 1 and r.stderr == ""
        assert json.loads(r.stdout)["blue_triple"]["triangle"] == \
            ["0", "1", "2"]

    @pytest.mark.parametrize("doc, stderr", NOT_AN_OBJECT_REFUSALS)
    def test_non_object_refusals_are_pinned(self, runner, tmp_path, doc,
                                            stderr):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        r = invoke(runner, ["coloring", "decide", str(path), "-n", "2"])
        assert (r.exit_code, r.stdout, r.stderr) == (2, "", stderr)

    @pytest.mark.parametrize("doc, stderr", DUPLICATE_REFUSALS
                             + INEXACT_REFUSALS + TABLE_REFUSALS
                             + POINT_REFUSALS + NAMED_VALUE_REFUSALS)
    def test_contradictions_and_inexact_types_refused(self, runner, tmp_path,
                                                      doc, stderr):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        r = invoke(runner, ["coloring", "decide", str(path), "-n", "2"])
        assert (r.exit_code, r.stdout, r.stderr) == (2, "", stderr)

    def test_one_color_given_twice_accepted(self, runner, tmp_path):
        path = tmp_path / "twice.json"
        path.write_text(json.dumps({
            "gamma": "w*2",
            "within": [{"class": [1, 0], "color": 1}] * 2,
            "cross": [_pair([1, 0], [2, 0], 1), _pair([1, 0], [2, 0], 1),
                      _pair([2, 0], [1, 0], 1)],
            "overrides": [_pair("3", "w", 0), _pair("3", "w", 0),
                          _pair("w", "3", 0)]}))
        r = invoke(runner, ["coloring", "decide", str(path), "-n", "2",
                            "--json"])
        assert r.exit_code == 1 and r.stderr == ""
        assert json.loads(r.stdout)["blue_triple"] is not None

    @pytest.mark.parametrize("doc", [[], "x", None, 3],
                             ids=["array", "string", "null", "number"])
    def test_certificate_not_an_object_refused(self, runner, files, tmp_path,
                                               doc):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        r = invoke(runner, ["coloring", "check", files["red"],
                            "--certificate", str(path)])
        assert (r.exit_code, r.stdout) == (2, "")
        assert r.stderr == ("error: malformed certificate file: TypeError("
                            "'the certificate is not a JSON object')\n")

    @pytest.mark.parametrize("field, value", [
        ("excluded", "12"), ("top_points", "1"), ("triangle", "123"),
        ("excluded", {"0": "1"}), ("top_points", 1), ("triangle", True)],
        ids=["excluded-string", "top_points-string", "triangle-string",
             "excluded-object", "top_points-number", "triangle-bool"])
    def test_certificate_points_not_a_list_refused(self, runner, files,
                                                   tmp_path, field, value):
        # a string was read one character a point: "12" as the points 1, 2
        cert = json.loads(Path(files["cert"]).read_text())
        cert[field] = value
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        r = invoke(runner, ["coloring", "check", files["red"],
                            "--certificate", str(path)])
        assert (r.exit_code, r.stdout) == (2, "")
        assert r.stderr == ("error: malformed certificate file: TypeError("
                            f"'certificate field {field} is not a list')\n")

    @pytest.mark.parametrize("excluded", [[5], ["5"]], ids=["int", "string"])
    def test_certificate_integer_point_accepted(self, runner, files,
                                                tmp_path, excluded):
        # points are read as coloring files read them: 5 is the point 5
        path = tmp_path / "cert.json"
        path.write_text(json.dumps({
            "kind": "red-omega-plus-n", "tail_class": [1, 0],
            "limit_point": "w", "excluded": excluded,
            "top_points": ["w+1"]}))
        r = invoke(runner, ["coloring", "check", files["red"],
                            "--certificate", str(path)])
        assert (r.exit_code, r.stderr) == (0, "")
        assert r.stdout == "valid red-omega-plus-n certificate\n"

    @pytest.mark.parametrize("field, value, shown", [
        ("limit_point", True, "true"), ("limit_point", 1.5, "1.5"),
        ("excluded", [False], "false"), ("top_points", [1.5], "1.5"),
        ("top_points", ["w+1", None], "null"),
        ("triangle", ["1", "2", [3]], "[3]")],
        ids=["limit_point-bool", "limit_point-float", "excluded-bool",
             "top_points-float", "top_points-null", "triangle-array"])
    def test_certificate_point_refusals_are_pinned(self, runner, files,
                                                   tmp_path, field, value,
                                                   shown):
        cert = json.loads(Path(files["cert"]).read_text())
        cert[field] = value
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        r = invoke(runner, ["coloring", "check", files["red"],
                            "--certificate", str(path)])
        assert (r.exit_code, r.stdout) == (2, "")
        assert r.stderr == ("error: malformed certificate file: OrdinalError("
                            f"'point {shown} is not an ordinal')\n")

    def test_inexact_certificate_class_refused(self, runner, files,
                                               tmp_path):
        cert = json.loads(Path(files["cert"]).read_text())
        assert cert["tail_class"] == [1, 0]
        cert["tail_class"] = [1.9, 0]
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        r = invoke(runner, ["coloring", "check", files["red"],
                            "--certificate", str(path)])
        assert (r.exit_code, r.stdout) == (2, "")
        assert r.stderr == ("error: malformed certificate file: OrdinalError("
                            "'class [1.9, 0] is not a pair of integers')\n")

    def test_usage_error_from_click(self, runner):
        r = invoke(runner, ["coloring", "decide", "/nonexistent", "-n", "3"])
        assert r.exit_code == 2

    @pytest.mark.parametrize("gamma", ["w^2*100000", "w^100000"])
    def test_oversized_gamma_refused_before_building(self, runner, tmp_path,
                                                     gamma):
        # 299 999 and 100 000 node classes, counted from the terms
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"gamma": gamma}))
        start = time.perf_counter()
        r = invoke(runner, ["coloring", "decide", str(path), "-n", "3"])
        assert time.perf_counter() - start < 1.0
        assert r.exit_code == 2
        assert "node classes, more than the limit" in r.output

    def test_largest_n_answers_with_a_checked_certificate(self, runner,
                                                          tmp_path):
        # every repeat of the one red class slot is filled at once, and
        # each class is walked once: n = 1000 searches in well under 1 s
        path = tmp_path / "red.json"
        path.write_text(json.dumps({"gamma": "w^2+1"}))
        start = time.perf_counter()
        r = invoke(runner, ["coloring", "decide", str(path), "-n", "1000",
                            "--json"])
        assert time.perf_counter() - start < 1.0
        assert r.exit_code == 1 and r.stderr == ""
        cert = json.loads(r.stdout)["red_omega_plus_n"]
        assert len(cert["top_points"]) == 999
        (tmp_path / "cert.json").write_text(json.dumps(cert))
        r = invoke(runner, ["coloring", "check", str(path), "--certificate",
                            str(tmp_path / "cert.json")])
        assert (r.exit_code, r.stdout) == (
            0, "valid red-omega-plus-n certificate\n")

    @pytest.mark.parametrize("n, tops", [(30, 29), (31, None)])
    def test_point_slots_run_out_at_once(self, runner, tmp_path, n, tops):
        # all red on w+30: the one limit is w, with the 29 points w+1..w+29
        # above it, so omega+30 uses them all and omega+31 has too few; the
        # search leaves a branch whose remaining slots cannot fill it, in
        # place of trying every subset of the 29 points
        path = tmp_path / "red.json"
        path.write_text(json.dumps({"gamma": "w+30"}))
        start = time.perf_counter()
        r = invoke(runner, ["coloring", "decide", str(path), "-n", str(n),
                            "--json"])
        assert time.perf_counter() - start < 1.0
        red = json.loads(r.stdout)["red_omega_plus_n"]
        assert r.exit_code == (1 if tops else 0)
        assert (len(red["top_points"]) if red else None) == tops

    @pytest.mark.parametrize("n", [1001, 10**6])
    def test_n_over_the_limit_refused_unsearched(self, runner, files, n):
        start = time.perf_counter()
        r = invoke(runner, ["coloring", "decide", files["red"], "-n", str(n)])
        assert time.perf_counter() - start < 1.0
        assert (r.exit_code, r.stdout) == (2, "")
        assert r.stderr == (f"error: n={n} is more than the limit of 1000 "
                            "for a red closed omega+n\n")

    def test_certificate_over_the_top_limit_refused_unread(self, runner,
                                                           files, tmp_path):
        cert = json.loads(Path(files["cert"]).read_text())
        cert["top_points"] = [f"w^2+w*{k}" for k in range(1, 5001)]
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        start = time.perf_counter()
        r = invoke(runner, ["coloring", "check", files["red"],
                            "--certificate", str(path)])
        assert time.perf_counter() - start < 1.0
        assert (r.exit_code, r.stdout) == (2, "")
        assert r.stderr == ("error: the certificate has 5000 top points, "
                            "more than the limit of 999\n")

    def test_oversized_gamma_is_not_called_malformed(self, runner, files,
                                                     tmp_path):
        # the file is well formed: the refusal prints its own message, not
        # the malformed-file wrapper with the exception's repr
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"gamma": "w^2*100000"}))
        for args in (["decide", str(path), "-n", "3"],
                     ["check", str(path), "--certificate", files["cert"]]):
            r = invoke(runner, ["coloring", *args])
            assert r.exit_code == 2
            assert r.output == ("error: gamma w^2*100000 has 299999 node "
                                "classes, more than the limit of 1000\n")
            assert "malformed" not in r.output
            assert "OrdinalError(" not in r.output


@pytest.mark.parametrize("kind, text, key", [
    ("coloring", '{"gamma": "w+2", "within": '
                 '[{"class": [1, 0], "color": 0, "color": 1}]}', "color"),
    ("coloring", '{"gamma": "w+2", "gamma": "w^2"}', "gamma"),
    ("certificate", '{"kind": "blue-3", "kind": "red-omega-plus-n", '
                    '"triangle": ["0", "1", "2"]}', "kind"),
    ("witness", '{"n": 3, "order": 5, "edges": [[0, 1]], "edges": '
                '[[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]}', "edges"),
], ids=["coloring-entry", "coloring-gamma", "certificate-kind",
        "witness-edges"])
def test_key_given_twice_is_malformed(runner, tmp_path, kind, text, key):
    # json.loads would keep the last value and judge the file on it
    path = tmp_path / "dup.json"
    path.write_text(text)
    red = tmp_path / "red.json"
    red.write_text(json.dumps({"gamma": "w+2"}))
    commands = {
        "coloring": [["coloring", "decide", str(path), "-n", "2"]],
        "certificate": [["coloring", "check", str(red), "--certificate",
                         str(path)]],
        "witness": [["ramsey", "verify", "-n", "3", "--witness", str(path)],
                    ["lower", "verify", "-n", "3", "--witness", str(path)]],
    }[kind]
    for command in commands:
        r = invoke(runner, command)
        assert (r.exit_code, r.stdout) == (2, ""), command
        assert r.stderr == (f"error: malformed {kind} file: "
                            f"ValueError('key \"{key}\" is given twice')\n")


def _live_runner_streams() -> int:
    gc.collect()
    return sum(1 for o in gc.get_objects()
               if isinstance(o, io.TextIOWrapper)
               and type(o).__module__ == "click.testing")


def test_runs_leave_no_stream_behind(runner):
    # every echo goes to an explicitly fetched stream: click's own default
    # caches one wrapper per CliRunner invocation and never frees it
    invoke(runner, ["bounds", "--json"])
    before = _live_runner_streams()
    for _ in range(30):
        assert invoke(runner, ["bounds", "--json"]).exit_code == 0
    assert invoke(runner, ["bounds", "--nmax", "2"]).exit_code == 2
    assert _live_runner_streams() == before
