"""Command line behaviour: parsing, outputs, exit codes, determinism."""

import io
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import BRIDGE_N, BRIDGE_PATHS, OVERLAP_PAIRS, PAIRS_N, family, greedy_antichain

from structfn import (
    CapacityError,
    MultilinearForm,
    evaluate_inclusion_exclusion,
    evaluate_reliability,
    mobius_transform,
    simple_form_from_paths,
    table_from_paths,
)
from structfn.cli import (
    EXIT_CAPACITY,
    EXIT_INPUT,
    EXIT_MISMATCH,
    EXIT_OK,
    main,
    parse_document,
)

BRIDGE_DOC = {"n": 5, "paths": [[1, 4], [2, 5], [1, 3, 5], [2, 3, 4]]}
OVERLAP_DOC = {"n": 4, "paths": [[1, 2], [1, 3], [2, 3, 4]]}

# Sixteen path sets on eighteen components, the largest shape of the exact benchmark.
WIDE_PATHS = greedy_antichain(random.Random(18), 18, 16, 3, 6)
WIDE_DOC = {"n": 18, "paths": [list(m.components()) for m in WIDE_PATHS.members]}


def write_doc(tmp_path, doc, name="system.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseDocument:
    def test_paths_document(self):
        doc = parse_document(json.dumps(BRIDGE_DOC))
        assert doc.kind == "paths"
        assert doc.n == 5
        assert str(doc.paths) == "{1,4}, {2,5}, {1,3,5}, {2,3,4}"

    def test_table_document(self):
        doc = parse_document(json.dumps({"n": 2, "table": "0111"}))
        assert doc.table.phi(0b01) == 1

    def test_simple_form_document(self):
        doc = {
            "n": 2,
            "simple_form": [
                {"subset": [1], "coeff": 1},
                {"subset": [2], "coeff": 1},
                {"subset": [1, 2], "coeff": -1},
            ],
        }
        parsed = parse_document(json.dumps(doc))
        assert parsed.simple_form.coefficient(0b11) == -1

    def test_bad_json_names_position(self):
        with pytest.raises(ValueError, match="line 1, column"):
            parse_document("{not json")

    def test_non_object(self):
        with pytest.raises(ValueError, match="must be a JSON object"):
            parse_document("[1, 2]")

    def test_unknown_field(self):
        with pytest.raises(ValueError, match="unknown field 'extra'"):
            parse_document(json.dumps({"n": 2, "table": "0111", "extra": 1}))

    def test_missing_n(self):
        with pytest.raises(ValueError, match="'n' is required"):
            parse_document(json.dumps({"paths": [[1]]}))

    def test_boolean_n_rejected(self):
        with pytest.raises(ValueError, match="'n' must be an integer"):
            parse_document(json.dumps({"n": True, "paths": [[1]]}))

    def test_n_too_small(self):
        with pytest.raises(ValueError, match="at least 1"):
            parse_document(json.dumps({"n": 0, "paths": [[1]]}))

    def test_n_beyond_cap_is_capacity_error(self):
        with pytest.raises(CapacityError):
            parse_document(json.dumps({"n": 25, "paths": [[1]]}))

    def test_no_representation(self):
        with pytest.raises(ValueError, match="got none"):
            parse_document(json.dumps({"n": 2}))

    def test_two_representations(self):
        with pytest.raises(ValueError, match="got paths, table"):
            parse_document(json.dumps({"n": 2, "paths": [[1]], "table": "0111"}))

    def test_empty_paths(self):
        with pytest.raises(ValueError, match="at least one path set required"):
            parse_document(json.dumps({"n": 2, "paths": []}))

    def test_empty_cuts(self):
        with pytest.raises(ValueError, match="at least one cut set required"):
            parse_document(json.dumps({"n": 2, "cuts": []}))

    def test_boolean_component_rejected(self):
        with pytest.raises(ValueError, match="component True is not an integer"):
            parse_document(json.dumps({"n": 2, "paths": [[True]]}))

    def test_out_of_range_component(self):
        with pytest.raises(ValueError, match="paths:"):
            parse_document(json.dumps({"n": 2, "paths": [[3]]}))

    def test_wrong_table_length(self):
        with pytest.raises(ValueError, match="expected 4 characters for n=2, got 3"):
            parse_document(json.dumps({"n": 2, "table": "011"}))

    def test_non_integer_coefficient(self):
        doc = {"n": 1, "simple_form": [{"subset": [1], "coeff": 1.5}]}
        with pytest.raises(ValueError, match="'coeff' must be an integer"):
            parse_document(json.dumps(doc))

    def test_unknown_form_field(self):
        doc = {"n": 1, "simple_form": [{"subset": [1], "coeff": 1, "sign": -1}]}
        with pytest.raises(ValueError, match="unknown field 'sign'"):
            parse_document(json.dumps(doc))


class TestAnalyze:
    def test_bridge_text(self, tmp_path, capsys):
        rc = main(["analyze", write_doc(tmp_path, BRIDGE_DOC)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "semicoherent: yes" in out
        assert "minimal path sets: {1,4}, {2,5}, {1,3,5}, {2,3,4}" in out
        assert "minimal cut sets: {1,2}, {4,5}, {1,3,5}, {2,3,4}" in out
        assert (
            "simple form: x1*x4 + x2*x5 + x1*x3*x5 + x2*x3*x4 - x1*x2*x3*x4"
            " - x1*x2*x3*x5 - x1*x2*x4*x5 - x1*x3*x4*x5 - x2*x3*x4*x5"
            " + 2*x1*x2*x3*x4*x5" in out
        )
        assert "diagonal: 2x^2 + 2x^3 - 5x^4 + 2x^5" in out
        assert "signature: (0, 1/5, 3/5, 1/5, 0)" in out
        assert "small counts: alpha1=0 alpha2=2 beta1=0 beta2=2" in out

    def test_bridge_json(self, tmp_path, capsys):
        rc = main(["analyze", "--format", "json", write_doc(tmp_path, BRIDGE_DOC)])
        payload = json.loads(capsys.readouterr().out)
        assert rc == EXIT_OK
        assert payload["diagonal"] == [0, 2, 2, -5, 2]
        assert payload["signature"] == ["0", "1/5", "3/5", "1/5", "0"]
        assert payload["minimal_cut_sets"] == [[1, 2], [4, 5], [1, 3, 5], [2, 3, 4]]
        assert payload["small_counts"] == {"alpha1": 0, "alpha2": 2, "beta1": 0, "beta2": 2}
        expected_table = table_from_paths(family(BRIDGE_PATHS, BRIDGE_N)).values_string()
        assert payload["table"] == expected_table

    def test_all_representations_agree(self, tmp_path, capsys):
        table = table_from_paths(family(BRIDGE_PATHS, BRIDGE_N))
        form = mobius_transform(table)
        docs = [
            BRIDGE_DOC,
            {"n": 5, "cuts": [[1, 2], [4, 5], [1, 3, 5], [2, 3, 4]]},
            {"n": 5, "table": table.values_string()},
            {
                "n": 5,
                "simple_form": [
                    {"subset": list(m.components()), "coeff": c} for m, c in form.terms()
                ],
            },
        ]
        payloads = []
        for i, doc in enumerate(docs):
            rc = main(["analyze", "--format", "json", write_doc(tmp_path, doc, f"{i}.json")])
            assert rc == EXIT_OK
            payload = json.loads(capsys.readouterr().out)
            payload.pop("representation")
            payloads.append(payload)
        assert all(p == payloads[0] for p in payloads[1:])

    def test_non_semicoherent_input(self, tmp_path, capsys):
        rc = main(["analyze", write_doc(tmp_path, {"n": 2, "table": "0110"})])
        err = capsys.readouterr().err
        assert rc == EXIT_INPUT
        assert "monotonicity violated" in err


class TestSingleViewCommands:
    def test_signature(self, tmp_path, capsys):
        rc = main(["signature", write_doc(tmp_path, OVERLAP_DOC)])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.strip() == "s = (0, 2/3, 1/3, 0)"

    def test_paths_and_cuts(self, tmp_path, capsys):
        doc = write_doc(tmp_path, BRIDGE_DOC)
        main(["paths", doc])
        assert "minimal path sets: {1,4}, {2,5}, {1,3,5}, {2,3,4}" in capsys.readouterr().out
        main(["cuts", doc])
        assert "minimal cut sets: {1,2}, {4,5}, {1,3,5}, {2,3,4}" in capsys.readouterr().out

    def test_simple_form(self, tmp_path, capsys):
        rc = main(["simple-form", write_doc(tmp_path, {"n": 2, "paths": [[1], [2]]})])
        assert rc == EXIT_OK
        assert "simple form: x1 + x2 - x1*x2" in capsys.readouterr().out

    def test_counts(self, tmp_path, capsys):
        rc = main(["counts", write_doc(tmp_path, BRIDGE_DOC)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "alpha: (0, 2, 2, 0, 0)" in out
        assert "beta: (0, 2, 2, 0, 0)" in out
        assert "small counts: alpha1=0 alpha2=2 beta1=0 beta2=2" in out

    def test_dual(self, tmp_path, capsys):
        rc = main(["dual", write_doc(tmp_path, BRIDGE_DOC)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "dual minimal path sets: {1,2}, {4,5}, {1,3,5}, {2,3,4}" in out
        assert "dual signature: (0, 1/5, 3/5, 1/5, 0)" in out


class TestReliability:
    def test_exact_common_probability(self, tmp_path, capsys):
        rc = main(["reliability", "--exact", "--p", "1/2", write_doc(tmp_path, BRIDGE_DOC)])
        assert rc == EXIT_OK
        assert "reliability: 1/2" in capsys.readouterr().out

    def test_exact_per_component(self, tmp_path, capsys):
        rc = main(
            ["reliability", "--exact", "--p", "1,1,0,1,1", write_doc(tmp_path, BRIDGE_DOC)]
        )
        assert rc == EXIT_OK
        assert "reliability: 1" in capsys.readouterr().out

    def test_float_output(self, tmp_path, capsys):
        rc = main(["reliability", "--p", "0.5", write_doc(tmp_path, BRIDGE_DOC)])
        assert rc == EXIT_OK
        assert "reliability: 0.5" in capsys.readouterr().out

    def test_json_keeps_exact_strings(self, tmp_path, capsys):
        rc = main(
            [
                "reliability",
                "--exact",
                "--p",
                "1/3",
                "--format",
                "json",
                write_doc(tmp_path, {"n": 2, "paths": [[1, 2]]}),
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert rc == EXIT_OK
        assert payload["reliability"] == "1/9"
        assert payload["p"] == ["1/3", "1/3"]

    def test_requires_p(self, tmp_path, capsys):
        rc = main(["reliability", write_doc(tmp_path, BRIDGE_DOC)])
        assert rc == EXIT_INPUT
        assert "requires --p" in capsys.readouterr().err

    def test_wrong_probability_count(self, tmp_path, capsys):
        rc = main(["reliability", "--p", "0.5,0.5", write_doc(tmp_path, BRIDGE_DOC)])
        assert rc == EXIT_INPUT
        assert "expected 5 component probabilities" in capsys.readouterr().err

    def test_unparseable_probability(self, tmp_path, capsys):
        rc = main(["reliability", "--p", "abc", write_doc(tmp_path, BRIDGE_DOC)])
        assert rc == EXIT_INPUT
        assert "cannot parse 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("doc", [BRIDGE_DOC, WIDE_DOC], ids=["bridge", "n18r16"])
    def test_computes_only_what_it_prints(self, tmp_path, capsys, monkeypatch, doc, exact, fmt):
        def refuse(*args, **kwargs):
            raise AssertionError("reliability prints nothing that needs cuts")

        monkeypatch.setattr("structfn.cli.minimal_cut_sets", refuse)
        monkeypatch.setattr("structfn.cli.dual_simple_form_from_cuts", refuse)
        n = doc["n"]
        paths = family(doc["paths"], n)
        primes = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67)
        if exact:
            p = tuple(Fraction(k % (q - 1) + 1, q) for k, q in enumerate(primes[:n]))
            value = evaluate_inclusion_exclusion(paths, p)
            argv = ["--exact", "--p", ",".join(str(v) for v in p)]
            payload_p, payload_value = [str(v) for v in p], str(value)
        else:
            p = tuple((k + 1) / (n + 2) for k in range(n))
            value = evaluate_reliability(simple_form_from_paths(paths), p)
            argv = ["--p", ",".join(repr(v) for v in p)]
            payload_p, payload_value = list(p), value
        rc = main(["reliability", *argv, "--format", fmt, write_doc(tmp_path, doc)])
        assert rc == EXIT_OK
        if fmt == "text":
            expected = f"n: {n}\nreliability: {value}\n"
        else:
            payload = {"n": n, "p": payload_p, "reliability": payload_value}
            expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert capsys.readouterr().out == expected

    def test_semicoherence_is_checked_before_the_probability_count(self, tmp_path, capsys):
        doc = write_doc(tmp_path, {"n": 2, "table": "0110"})
        rc = main(["reliability", "--p", "0.5,0.5,0.5", doc])
        err = capsys.readouterr().err
        assert rc == EXIT_INPUT
        assert "monotonicity violated" in err
        assert "component probabilities" not in err


class TestVerify:
    def test_bridge_passes_all_checks(self, tmp_path, capsys):
        rc = main(["verify", write_doc(tmp_path, BRIDGE_DOC)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "verification: PASS (8/8 checks)" in out
        assert "MISMATCH" not in out

    def test_formation_check_skips_past_oracle_cap(self, tmp_path, capsys):
        two_of_six = {
            "n": 6,
            "paths": [[i, j] for i in range(1, 7) for j in range(i + 1, 7)],
        }
        rc = main(["verify", write_doc(tmp_path, two_of_six)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "skipped (15 path sets exceeds oracle cap 10)" in out
        assert "verification: PASS (8/8 checks)" in out

    def test_planted_fault_is_reported(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            "structfn.oracle.oracle_simple_form",
            lambda table: MultilinearForm(n=table.n, coeffs={}),
        )
        rc = main(["verify", write_doc(tmp_path, BRIDGE_DOC)])
        out = capsys.readouterr().out
        assert rc == EXIT_MISMATCH
        assert "check mobius matches direct polynomial expansion: MISMATCH" in out
        assert "verification: FAIL (7/8 checks)" in out

    def test_rejects_large_n(self, tmp_path, capsys):
        doc = {"n": 11, "paths": [[i] for i in range(1, 12)]}
        rc = main(["verify", write_doc(tmp_path, doc)])
        assert rc == EXIT_CAPACITY
        assert "limited to n <= 10" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_file(self, capsys):
        rc = main(["analyze", "/nonexistent/system.json"])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err.startswith("input error:")

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        rc = main(["analyze", str(path)])
        assert rc == EXIT_INPUT

    def test_unknown_command(self, tmp_path, capsys):
        rc = main(["frobnicate", write_doc(tmp_path, BRIDGE_DOC)])
        assert rc == EXIT_INPUT
        assert "invalid choice" in capsys.readouterr().err

    def test_capacity_cap_from_flag(self, tmp_path, capsys):
        rc = main(["analyze", "--max-n", "4", write_doc(tmp_path, BRIDGE_DOC)])
        assert rc == EXIT_CAPACITY
        assert capsys.readouterr().err.startswith("capacity error:")

    def test_bad_max_r_flag(self, tmp_path, capsys):
        rc = main(["analyze", "--max-r", "0", write_doc(tmp_path, BRIDGE_DOC)])
        assert rc == EXIT_INPUT
        assert "--max-r must be in 1..24" in capsys.readouterr().err


class TestInputChannels:
    def test_stdin_document(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(OVERLAP_DOC)))
        rc = main(["signature", "-"])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.strip() == "s = (0, 2/3, 1/3, 0)"

    def test_module_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "structfn", "signature", write_doc(tmp_path, OVERLAP_DOC)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == EXIT_OK
        assert result.stdout.strip() == "s = (0, 2/3, 1/3, 0)"


class TestDeterminism:
    def test_repeated_runs_are_identical(self, tmp_path, capsys):
        doc = write_doc(tmp_path, BRIDGE_DOC)
        outputs = []
        for _ in range(3):
            assert main(["analyze", "--format", "json", doc]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_fallback_route_gives_identical_output(self, tmp_path, capsys):
        doc = write_doc(tmp_path, BRIDGE_DOC)
        main(["analyze", "--format", "json", doc])
        default = capsys.readouterr().out
        main(["analyze", "--format", "json", "--max-r", "2", doc])
        assert capsys.readouterr().out == default
