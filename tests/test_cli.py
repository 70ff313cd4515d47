"""Command line behaviour: parsing, outputs, exit codes, determinism."""

import hashlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    BRIDGE_N,
    BRIDGE_PATHS,
    LATTICE_N20_PATHS,
    LATTICE_N22_PATHS,
    LATTICE_N24_PATHS,
    OVERLAP_PAIRS,
    PAIRS_N,
    coproduct_table,
    family,
    greedy_antichain,
    k_of_n_table,
)

from structfn import (
    R_MAX,
    CapacityError,
    MultilinearForm,
    SetFamily,
    SubsetMask,
    TruthTable,
    diagonal_from_paths,
    dualize_table,
    evaluate_inclusion_exclusion,
    evaluate_reliability,
    minimal_cut_sets,
    minimal_path_sets,
    mobius_transform,
    signature_boland,
    simple_form_from_paths,
    table_from_cuts,
    table_from_paths,
)
from structfn.core import (
    _dense_mobius,
    _mask_labels,
    _mobius_budget,
    _set_str,
    _subset_sort_key,
    _subtable_mobius,
)
from structfn.cli import (
    COMMANDS,
    EXIT_CAPACITY,
    EXIT_INPUT,
    EXIT_MISMATCH,
    EXIT_OK,
    VERIFY_N_MAX,
    Options,
    _VIEWS,
    _form_text,
    _members_json,
    _render,
    _terms_json,
    _vertices_match,
    main,
    parse_document,
    run_command,
)
from structfn.oracle import enumerate_semicoherent

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

    @pytest.mark.parametrize("n", range(1, 9))
    def test_dual_views_match_library_routes(self, tmp_path, capsys, n):
        # Unlike the self-dual bridge, these systems tell dual views from primal ones.
        rng = random.Random(1300 + n)
        for _ in range(3):
            paths = greedy_antichain(rng, n, rng.randint(1, 2 * n), 1, n)
            table = table_from_paths(paths)
            cuts = minimal_cut_sets(table)
            docs = [
                {"n": n, "paths": [list(m.components()) for m in paths.members]},
                {"n": n, "cuts": [list(m.components()) for m in cuts.members]},
                {"n": n, "table": table.values_string()},
                {
                    "n": n,
                    "simple_form": [
                        {"subset": list(m.components()), "coeff": c}
                        for m, c in mobius_transform(table).terms()
                    ],
                },
            ]
            dual_sig = [str(v) for v in signature_boland(dualize_table(table)).s]
            alpha = paths.size_census() + (0,)
            beta = cuts.size_census() + (0,)
            small = {"alpha1": alpha[0], "alpha2": alpha[1], "beta1": beta[0], "beta2": beta[1]}
            for doc in docs:
                rc = main(["analyze", "--format", "json", write_doc(tmp_path, doc)])
                assert rc == EXIT_OK
                payload = json.loads(capsys.readouterr().out)
                assert payload["dual_signature"] == dual_sig == payload["signature"][::-1]
                assert payload["dual_diagonal"] == list(diagonal_from_paths(cuts).d)
                assert payload["small_counts"] == small

    def test_non_semicoherent_input(self, tmp_path, capsys):
        rc = main(["analyze", write_doc(tmp_path, {"n": 2, "table": "0110"})])
        err = capsys.readouterr().err
        assert rc == EXIT_INPUT
        assert "monotonicity violated" in err

    @pytest.mark.parametrize(
        "terms, message",
        [
            (
                [([1], 1), ([1, 2], -1), ([1, 2, 3], 1)],
                "monotonicity violated: phi({1}) = 1 > 0 = phi({1,2})",
            ),
            (
                [([1], 1), ([1, 2], -1), ([1, 3], -1), ([1, 2, 3], 1)],
                "phi({1,2,3}) = 0, expected 1; "
                "monotonicity violated: phi({1}) = 1 > 0 = phi({1,2}); "
                "monotonicity violated: phi({1}) = 1 > 0 = phi({1,3})",
            ),
        ],
        ids=["one-direction", "two-directions-and-full-set"],
    )
    def test_form_document_with_a_non_monotone_table(self, tmp_path, capsys, terms, message):
        """The form's table is 0/1, so only the semicoherence check rejects it,
        and only after the component cap."""
        form = [{"subset": subset, "coeff": coeff} for subset, coeff in terms]
        doc = write_doc(tmp_path, {"n": 3, "simple_form": form})
        assert main(["analyze", doc]) == EXIT_INPUT
        assert capsys.readouterr().err == f"input error: {message}\n"
        assert main(["analyze", "--max-n", "2", doc]) == EXIT_CAPACITY
        assert capsys.readouterr().err == "capacity error: n=3 exceeds max_n=2\n"


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


# Twelve path sets on twenty components, whose form has 597 terms.
SEEDED_N20_PATHS = greedy_antichain(random.Random(20), 20, 12, 2, 6)
SEEDED_N20_DOC = {"n": 20, "paths": [list(m.components()) for m in SEEDED_N20_PATHS.members]}

# SHA-256 of the stdout of `reliability --p 0.9`, recorded while the float term
# loop still read each term's components from a bit-by-bit generator.
FLOAT_RELIABILITY_DIGESTS = {
    ("bridge", "text"): "04595bbfcbdfdbddd176da7d247195269963245e9cf8c496eccdc80fa57f1f6a",
    ("bridge", "json"): "5777b05734a97fe3162f7f38ceb03050497c565b8551ac9a55f849140218c605",
    ("seeded_n20", "text"): "443035d46e6a76f36d8fe37b6a2205bfbc9543605a5ed475a931b5bb1f29c12d",
    ("seeded_n20", "json"): "2388313716ca667217a9c63529fbb59b4fefe20d411bce077d85a870f3205045",
}


class TestReliability:
    @pytest.mark.parametrize("doc_name, fmt", sorted(FLOAT_RELIABILITY_DIGESTS))
    def test_float_stdout_is_unchanged(self, tmp_path, capsys, doc_name, fmt):
        doc = {"bridge": BRIDGE_DOC, "seeded_n20": SEEDED_N20_DOC}[doc_name]
        rc = main(["reliability", "--p", "0.9", "--format", fmt, write_doc(tmp_path, doc)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == FLOAT_RELIABILITY_DIGESTS[doc_name, fmt]

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

        monkeypatch.setattr("structfn.cli.dualize_table", refuse)
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

    @pytest.mark.parametrize(
        ("p", "message"),
        [
            ("0.5,0.5", "expected 5 component probabilities, got 2"),
            ("2", "p[1] = 2.0 outside [0, 1]"),
        ],
        ids=["count", "range"],
    )
    def test_probabilities_are_checked_before_the_form(
        self, tmp_path, capsys, monkeypatch, p, message
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a rejected --p needs no form")

        monkeypatch.setattr("structfn.cli._form_of", refuse)
        rc = main(["reliability", "--p", p, write_doc(tmp_path, BRIDGE_DOC)])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == f"input error: {message}\n"

    def test_semicoherence_is_checked_before_the_probability_count(self, tmp_path, capsys):
        doc = write_doc(tmp_path, {"n": 2, "table": "0110"})
        rc = main(["reliability", "--p", "0.5,0.5,0.5", doc])
        err = capsys.readouterr().err
        assert rc == EXIT_INPUT
        assert "monotonicity violated" in err
        assert "component probabilities" not in err


# Systems that pass every check: the bridge, the ten cyclic triples {i, i+1, i+3}
# on ten components, and parallel 10 (1,023 terms) and 5-out-of-10, the
# densest forms at the verify cap.
VERIFY_DOCS = {
    "bridge": BRIDGE_DOC,
    "ring_10": {
        "n": 10,
        "paths": [sorted({i, i % 10 + 1, (i + 2) % 10 + 1}) for i in range(1, 11)],
    },
    "parallel_10": {"n": 10, "paths": [[i] for i in range(1, 11)]},
    "5_of_10": {"n": 10, "table": k_of_n_table(5, 10).values_string()},
}


class TestVerify:
    @pytest.mark.parametrize("doc_name", list(VERIFY_DOCS))
    def test_passes_all_checks(self, tmp_path, capsys, doc_name):
        rc = main(["verify", write_doc(tmp_path, VERIFY_DOCS[doc_name])])
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

    @pytest.mark.parametrize("fault", ["dropped", "negated"])
    def test_checks_the_form_the_other_commands_print(self, tmp_path, capsys, monkeypatch, fault):
        import structfn.cli

        true_form_of = structfn.cli._form_of

        def faulty_form_of(*args, **kwargs):
            form = true_form_of(*args, **kwargs)
            coeffs = dict(form.coeffs)
            top = max(coeffs)  # the bridge's full-set term, 2*x1*x2*x3*x4*x5
            if fault == "dropped":
                del coeffs[top]
            else:
                coeffs[top] = -coeffs[top]
            return MultilinearForm(n=form.n, coeffs=coeffs)

        monkeypatch.setattr("structfn.cli._form_of", faulty_form_of)
        rc = main(["verify", write_doc(tmp_path, BRIDGE_DOC)])
        out = capsys.readouterr().out
        assert rc == EXIT_MISMATCH
        # zeta of the form and the signature each reject what they computed:
        # a failed check, not an input error.
        # The full set is the union of all four paths, so the census visits it
        # whether or not the form still holds its term.
        mismatched = [
            "zeta of mobius reproduces table",
            "mobius matches direct polynomial expansion",
            "formation census matches simple form",
            "signature routes agree",
            "reliability at vertices matches table",
        ]
        for name in mismatched:
            assert f"check {name}: MISMATCH" in out
        assert f"verification: FAIL ({8 - len(mismatched)}/8 checks)" in out

    def test_census_visits_every_union_of_paths(self, tmp_path, capsys, monkeypatch):
        import structfn.cli

        true_form_of = structfn.cli._form_of
        path_135 = 0b10101  # the bridge's size-3 term x1*x3*x5, itself a path

        def faulty_form_of(*args, **kwargs):
            coeffs = dict(true_form_of(*args, **kwargs).coeffs)
            del coeffs[path_135]
            return MultilinearForm(n=BRIDGE_N, coeffs=coeffs)

        monkeypatch.setattr("structfn.cli._form_of", faulty_form_of)
        rc = main(["verify", write_doc(tmp_path, BRIDGE_DOC)])
        out = capsys.readouterr().out
        assert rc == EXIT_MISMATCH
        assert "check formation census matches simple form: MISMATCH\n" in out

    def test_planted_census_fault_is_reported(self, tmp_path, capsys, monkeypatch):
        import structfn.oracle

        true_census = structfn.oracle._formation_census

        def shifted_census(paths):
            return {union: (odd, even + 1) for union, (odd, even) in true_census(paths).items()}

        monkeypatch.setattr("structfn.oracle._formation_census", shifted_census)
        rc = main(["verify", write_doc(tmp_path, BRIDGE_DOC)])
        out = capsys.readouterr().out
        assert rc == EXIT_MISMATCH
        assert "check formation census matches simple form: MISMATCH\n" in out
        assert "verification: FAIL (7/8 checks)" in out

    def test_max_r_one_checks_the_dense_route(self, capsys, monkeypatch):
        import structfn.transform

        dense = []
        mobius = structfn.transform.mobius_transform

        def recorded(table, **kwargs):
            dense.append(table.n)
            return mobius(table, **kwargs)

        monkeypatch.setattr("structfn.transform.mobius_transform", recorded)
        for path in sorted(SAMPLE_DIR.glob("*.json")):
            dense.clear()
            rc = main(["verify", "--max-r", "1", str(path)])
            out = capsys.readouterr().out
            assert rc == EXIT_OK, path.name
            assert out.endswith("verification: PASS (8/8 checks)\n"), path.name
            assert dense, path.name

    def test_rejects_large_n(self, tmp_path, capsys):
        doc = {"n": 11, "paths": [[i] for i in range(1, 12)]}
        rc = main(["verify", write_doc(tmp_path, doc)])
        assert rc == EXIT_CAPACITY
        assert "limited to n <= 10" in capsys.readouterr().err

    def test_checks_its_cap_before_building_the_table(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a document over the verify cap needs no table")

        monkeypatch.setattr("structfn.cli.zeta_transform", refuse)
        series = {"n": 24, "simple_form": [{"subset": list(range(1, 25)), "coeff": 1}]}
        rc = main(["verify", write_doc(tmp_path, series)])
        assert rc == EXIT_CAPACITY
        assert capsys.readouterr().err == (
            "capacity error: verify runs brute-force oracles and is limited to n <= 10, got n=24\n"
        )

    def test_cap_comes_before_the_semicoherence_check(self, tmp_path, capsys):
        working_when_empty = {"n": 11, "table": "1" + "0" * ((1 << 11) - 1)}
        rc = main(["verify", write_doc(tmp_path, working_when_empty)])
        err = capsys.readouterr().err
        assert rc == EXIT_CAPACITY
        assert "limited to n <= 10, got n=11" in err
        assert "monotonicity" not in err


def vertex_sweep(form: MultilinearForm, table: TruthTable) -> bool:
    """The vertex check as it was: one evaluation at each of the 2^n vertices."""
    return all(
        evaluate_reliability(form, [m >> i & 1 for i in range(table.n)]) == table.phi(m)
        for m in range(1 << table.n)
    )


def integer_mobius(values: list[int], n: int) -> MultilinearForm:
    """The form that takes the integer values[m] at each vertex m."""
    coeffs = list(values)
    for i in range(n):
        for m in range(1 << n):
            if m >> i & 1:
                coeffs[m] -= coeffs[m ^ 1 << i]
    return MultilinearForm(n=n, coeffs=dict(enumerate(coeffs)))


def seeded_tables() -> list[TruthTable]:
    """Tables of seeded antichains, four for each n = 5..10."""
    rng = random.Random(36)
    return [
        table_from_paths(greedy_antichain(rng, n, rng.randint(1, 12), 1, n))
        for n in range(5, VERIFY_N_MAX + 1)
        for _ in range(4)
    ]


class TestVertexCheck:
    """verify's vertex check, one exact evaluation, against the per-vertex sweep."""

    def test_every_small_system(self):
        for n in range(1, 5):
            tables = enumerate_semicoherent(n)
            for table in tables:
                form = mobius_transform(table)
                assert _vertices_match(form, table) is vertex_sweep(form, table) is True
            if n <= 3:  # every form of this size against every table
                for table in tables:
                    for other in tables:
                        form = mobius_transform(other)
                        assert _vertices_match(form, table) is vertex_sweep(form, table)

    def test_seeded_antichains(self):
        for table in seeded_tables():
            form = mobius_transform(table)
            assert _vertices_match(form, table) is vertex_sweep(form, table) is True

    @pytest.mark.parametrize("shift", ["1", "-1", "2", "-2", "2^n", "-2^n"])
    def test_shifted_coefficient(self, shift):
        rng = random.Random(shift)
        for table in [BRIDGE_TABLE, *seeded_tables()]:
            n = table.n
            delta = {"1": 1, "-1": -1, "2": 2, "-2": -2, "2^n": 1 << n, "-2^n": -(1 << n)}[shift]
            coeffs = dict(mobius_transform(table).coeffs)
            for mask in {0, (1 << n) - 1, rng.choice(list(coeffs)), rng.randrange(1 << n)}:
                shifted = MultilinearForm(n=n, coeffs={**coeffs, mask: coeffs.get(mask, 0) + delta})
                assert _vertices_match(shifted, table) is vertex_sweep(shifted, table) is False

    def test_errors_that_cancel_in_base_two(self):
        """Errors of +2 at digit k and -1 at digit k + 1 sum to zero in base 2.

        Digit k holds the value at vertex full ^ k, so each such pair of
        vertex errors is invisible to a base-2 encoding of the vertex values."""
        n, full = BRIDGE_N, (1 << BRIDGE_N) - 1
        values = [BRIDGE_TABLE.phi(m) for m in range(1 << n)]
        for k in range(full):
            errors = {full ^ k: 2, full ^ (k + 1): -1}
            assert sum(e << (full ^ m) for m, e in errors.items()) == 0
            form = integer_mobius([v + errors.get(m, 0) for m, v in enumerate(values)], n)
            assert _vertices_match(form, BRIDGE_TABLE) is vertex_sweep(form, BRIDGE_TABLE) is False

    def test_one_evaluation(self, monkeypatch):
        import structfn.cli

        calls = []
        true_evaluate = structfn.cli.evaluate_reliability

        def counted(form, p):
            calls.append(len(p))
            return true_evaluate(form, p)

        monkeypatch.setattr("structfn.cli.evaluate_reliability", counted)
        table = k_of_n_table(5, VERIFY_N_MAX)
        assert _vertices_match(mobius_transform(table), table)
        assert calls == [VERIFY_N_MAX]

    def test_cli_reports_an_evaluation_off_by_one(self, tmp_path, capsys, monkeypatch):
        import structfn.cli

        true_evaluate = structfn.cli.evaluate_reliability
        monkeypatch.setattr(
            "structfn.cli.evaluate_reliability", lambda form, p: true_evaluate(form, p) + 1
        )
        rc = main(["verify", write_doc(tmp_path, BRIDGE_DOC)])
        out = capsys.readouterr().out
        assert rc == EXIT_MISMATCH
        assert "check reliability at vertices matches table: MISMATCH\n" in out
        assert out.endswith("verification: FAIL (7/8 checks)\n")


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

    def test_deeply_nested_document(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"n": 2, "paths": ' + "[" * 100000 + "]" * 100000 + "}")
        rc = main(["paths", str(path)])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == "input error: document nests too deeply\n"

    @pytest.mark.parametrize(
        ("flags", "doc", "message"),
        [
            ([], {"n": 2, "paths": 3}, "paths: expected a list of component lists"),
            ([], {"n": 2, "paths": [1]}, "paths[0]: expected a list of components"),
            ([], {"n": 1, "table": 5}, "table: expected a string of '0'/'1' characters"),
            ([], {"n": 1, "table": "0x"}, "table: table character 'x' at position 1 is not 0 or 1"),
            (
                [],
                {"n": 2, "simple_form": {}},
                "simple_form: expected a list of {subset, coeff} objects",
            ),
            ([], {"n": 2, "simple_form": [1]}, "simple_form[0]: expected an object"),
            (
                [],
                {"n": 2, "simple_form": [{"subset": [1]}]},
                "simple_form[0]: fields 'subset' and 'coeff' are required",
            ),
            (
                [],
                {"n": 2, "simple_form": [{"subset": 1, "coeff": 1}]},
                "simple_form[0]: 'subset' must be a list of integers",
            ),
            (
                [],
                {"n": 2, "simple_form": [{"subset": [1], "coeff": 1}] * 2},
                "simple_form: subset {1} listed twice",
            ),
            (["--p", "0.5,,0.5"], BRIDGE_DOC, "--p: empty entry"),
            (["--max-n", "25"], BRIDGE_DOC, "--max-n must be in 1..24"),
        ],
        ids=[
            "paths-not-list", "path-not-list", "table-not-string", "table-character",
            "form-not-list", "term-not-object", "term-fields", "term-subset", "term-twice",
            "p-empty-entry", "max-n-range",
        ],
    )
    def test_input_error_message(self, tmp_path, capsys, flags, doc, message):
        command = "reliability" if "--p" in flags else "analyze"
        rc = main([command, *flags, write_doc(tmp_path, doc)])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == f"input error: {message}\n"

    def test_unknown_command(self, tmp_path, capsys):
        rc = main(["frobnicate", write_doc(tmp_path, BRIDGE_DOC)])
        assert rc == EXIT_INPUT
        assert "invalid choice" in capsys.readouterr().err

    def test_run_command_names_an_unknown_command(self):
        system = parse_document(json.dumps(BRIDGE_DOC))
        with pytest.raises(ValueError) as excinfo:
            run_command(system, "frobnicate")
        assert str(excinfo.value) == "unknown command 'frobnicate'"

    def test_capacity_cap_from_flag(self, tmp_path, capsys):
        rc = main(["analyze", "--max-n", "4", write_doc(tmp_path, BRIDGE_DOC)])
        assert rc == EXIT_CAPACITY
        assert capsys.readouterr().err.startswith("capacity error:")

    def test_bad_max_r_flag(self, tmp_path, capsys):
        rc = main(["analyze", "--max-r", "0", write_doc(tmp_path, BRIDGE_DOC)])
        assert rc == EXIT_INPUT
        assert "--max-r must be in 1..24" in capsys.readouterr().err

    def test_parser_is_built_once(self, tmp_path, capsys, monkeypatch):
        import structfn.cli

        built = []
        original = structfn.cli._Parser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        structfn.cli._build_parser.cache_clear()
        monkeypatch.setattr(structfn.cli._Parser, "__init__", counting)
        assert main(["paths"]) == EXIT_INPUT  # the parser raises from error() ...
        assert capsys.readouterr().err == (
            "input error: the following arguments are required: document\n"
        )
        assert main(["paths", write_doc(tmp_path, BRIDGE_DOC)]) == EXIT_OK  # ... and is reused
        out = capsys.readouterr().out
        assert out == "n: 5\nminimal path sets: {1,4}, {2,5}, {1,3,5}, {2,3,4}\n"
        assert len(built) == 1

    @pytest.mark.parametrize("fmt, head", [("text", b"n: 14\nsimp"), ("json", b'{\n  "n": 1')])
    def test_closed_stdout_ends_quietly(self, tmp_path, fmt, head):
        # 2^14 - 1 terms: over 64 KiB, more than a pipe buffer holds, in either format.
        doc = write_doc(tmp_path, {"n": 14, "paths": [[i] for i in range(1, 15)]})
        proc = subprocess.Popen(
            [sys.executable, "-m", "structfn", "simple-form", "--format", fmt, doc],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.read(10) == head
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_INPUT
        assert err == b""


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


BRIDGE_TABLE = coproduct_table(BRIDGE_PATHS, BRIDGE_N)

# The bridge in each of the four document kinds, and the n = 20 lattice.
SCOPE_DOCS = {
    "bridge": BRIDGE_DOC,
    "bridge_cuts": {"n": BRIDGE_N, "cuts": [[1, 2], [4, 5], [1, 3, 5], [2, 3, 4]]},
    "bridge_table": {"n": BRIDGE_N, "table": BRIDGE_TABLE.values_string()},
    "bridge_form": {
        "n": BRIDGE_N,
        "simple_form": [
            {"subset": list(m.components()), "coeff": c}
            for m, c in mobius_transform(BRIDGE_TABLE).terms()
        ],
    },
    "lattice_n20": {"n": 20, "paths": [list(p) for p in LATTICE_N20_PATHS]},
    "lattice_n24": {"n": 24, "paths": [list(p) for p in LATTICE_N24_PATHS]},
    # The 2-out-of-17 system: 136 minimal paths, so its form is the table's
    # Mobius transform, 131,054 terms whose subtable walk passes its budget.
    "two_of_17": {"n": 17, "table": "".join("01"[m.bit_count() >= 2] for m in range(1 << 17))},
}

# SHA-256 of the stdout of every command in both formats, recorded before the
# CLI computed its views lazily; reliability runs with --p 1/2 --exact.
STDOUT_DIGESTS = {
    ("bridge", "analyze", "text"):
        "483f6b1f8407f3b8d1b4ab62096e158016050726b37c2d03e718dd91dcdacf94",
    ("bridge", "analyze", "json"):
        "c7715331491d416f131c47743c4f6307d3a9bf8df1b60e7c8c6fed5a6edeefe0",
    ("bridge", "dual", "text"):
        "c582de05d9953cd6602f75f8121b01c9f1d47ea114f59bc400986dd726eb1470",
    ("bridge", "dual", "json"):
        "bd151e2a33a8ef0936c3e999597007a8be8337b433fcc0028c0248bb52d5321b",
    ("bridge", "paths", "text"):
        "182d75c2b514f81ac07df2dbe57f2e0dd61b9e144630c3b0a6c36322fcd3faf2",
    ("bridge", "paths", "json"):
        "0efe336d474f9735baa82803c03c93e27a9da98d2c2786778e3eaa976f04b5bf",
    ("bridge", "cuts", "text"):
        "f1a4d73a9c51f4480e830b379651105db2df59f9ab8de4ca1db02690e078fe4e",
    ("bridge", "cuts", "json"):
        "be302eacdecbdb72c9bd68d248d2b24951ef6ffb3ba533e06dcef3c2d1e38e7a",
    ("bridge", "simple-form", "text"):
        "ded6762a0622177fa5c8bc50b67e29c8050478581f042761ab7b76216c41436d",
    ("bridge", "simple-form", "json"):
        "1e185ce67d8030c819f0017a71bf1232fcb8f5abbe811c397a61b7fb473f0312",
    ("bridge", "signature", "text"):
        "d90d7743224dc3eef15308e3383934883f0d929ddf4ccd96a4313c6e77bc4211",
    ("bridge", "signature", "json"):
        "9f50c60e1f58ac537239773cee4615bbea7338f494ccf5dc3114a4c98920f79c",
    ("bridge", "counts", "text"):
        "1307fae8fd5b1bd752c06342f3ba8f12d960daf2ad052a53265e411577a91982",
    ("bridge", "counts", "json"):
        "8abb3ec6d95d65578a251530880fc90e84c9cae23da034fac818adaf68c02f23",
    ("bridge", "reliability", "text"):
        "cfe4773ca7aa067f784e95f4799ed5937da81128892d72c0023c43253f9b1de9",
    ("bridge", "reliability", "json"):
        "f35ccf5c0c19b2e3452328d5bc792da62229e99ded2a02fdfefd1bf37907436c",
    ("bridge", "verify", "text"):
        "de8128e28f0fccd8e116612b17663d56ff08dd7e48eb8a16cd6bc2a5daf5371f",
    ("bridge", "verify", "json"):
        "95f77d4601ecbdcb0ebe0e98530dfbb2a05eef9843c6229238dfcb4c6c1a1e77",
    ("lattice_n20", "analyze", "text"):
        "4d80eb776f9236b141eb96c810b1a81243a3e854d1903b2c69182e7bf43532a2",
    ("lattice_n20", "analyze", "json"):
        "42596cf44f6023d6c284d78c80acd11abbf5bcd31d1c49c9a8e692c6c2704bff",
    ("lattice_n20", "dual", "text"):
        "2c84fc4ac971165a998511b52c434be0fca12143a74ba2ed6758f497eab0cda5",
    ("lattice_n20", "dual", "json"):
        "cdd6e80b3241b335c22bc78c7d2309eaf4fb5017db23693f2cce5076e7666639",
    ("lattice_n20", "paths", "text"):
        "5350f7193a8d829bed509556d89647feb4e5cd97ef72b6bffd329a26b4f36c63",
    ("lattice_n20", "paths", "json"):
        "4cba1aa751e707d6357cfecaa61ccaf738f1ab950ab28fc27c5414ee52616e07",
    ("lattice_n20", "cuts", "text"):
        "1ffe0d2c6cb762c97c8014f6338d7ecd969f20cc26cd2777b3dce5d98dde00bc",
    ("lattice_n20", "cuts", "json"):
        "db026db5188b8016218f843b41b22b7f8594608358f721e5bd50511df25fc5cc",
    ("lattice_n20", "simple-form", "text"):
        "de7b96b6ecd0804fc8fb49cac01a667d8e07999d8463d5bf50090b9cd3a9e766",
    ("lattice_n20", "simple-form", "json"):
        "eb4fa242198cfe25f29b2361a38ef8c4a2dbbc02d009fc69388674bec1aa8784",
    ("lattice_n20", "signature", "text"):
        "1d9f9359221957fc7e0a1f436950ce9abddd5ab8de5a7b01325d0f85f63dbfaf",
    ("lattice_n20", "signature", "json"):
        "8a0f298372e1008127eb2f060d685f161f5bd386e012747ce46420a3966c221c",
    ("lattice_n20", "counts", "text"):
        "5edddda48f69b4420d43ed68acec652d959f87bca1c4007de1f4ae033eb73629",
    ("lattice_n20", "counts", "json"):
        "8b7b1c6227ad3ac5aaf96e656ccc3d577e6a5e6637568fae64c715190d5dd3af",
    ("lattice_n20", "reliability", "text"):
        "ec98459f6f74a9a88c56f6d5cb87048b2b418c0b4e02dee36d0553fd0e0e2f0e",
    ("lattice_n20", "reliability", "json"):
        "6624b48dbc50be921cf3cead0348f140642786fd8d56c528639b29f7eba8037c",
    # Recorded before table passes ran on chunks of 2^16 entries: n = 24 has
    # eight directions across chunks and a full int32 Mobius stage.
    ("lattice_n24", "analyze", "text"):
        "9ffe2cdffc93c044159d14c63c40e6958a4615190b6c52ed2ed666dea2b4dc81",
    ("lattice_n24", "dual", "json"):
        "1fe2c08a72281297b69de88bd2f92abf2dcb10936d9550e6a9cbf0082d66860d",
}


def run_cli(tmp_path, capsys, doc_name, command, fmt):
    extra = ["--p", "1/2", "--exact"] if command == "reliability" else []
    path = write_doc(tmp_path, SCOPE_DOCS[doc_name], f"{doc_name}.json")
    rc = main([command, *extra, "--format", fmt, path])
    return rc, capsys.readouterr().out


# Every report command in both formats on the bridge in each document kind, by
# test id; the paths document's cases are named by command and format alone.
VALIDATION_CASES = {
    f"{prefix}{command}-{fmt}": (doc_name, command, fmt)
    for prefix, doc_name in (
        ("", "bridge"),
        ("cuts-", "bridge_cuts"),
        ("table-", "bridge_table"),
        ("form-", "bridge_form"),
    )
    for command in COMMANDS
    if command != "verify"
    for fmt in ("text", "json")
}


class TestCommandScope:
    """Each command computes only the views it prints, from at most one validation."""

    @pytest.mark.parametrize("doc_name, command, fmt", sorted(STDOUT_DIGESTS))
    def test_stdout_is_unchanged(self, tmp_path, capsys, doc_name, command, fmt):
        rc, out = run_cli(tmp_path, capsys, doc_name, command, fmt)
        assert rc == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_DIGESTS[doc_name, command, fmt]

    def test_digests_cover_every_command(self):
        assert {c for _, c, _ in STDOUT_DIGESTS} == set(COMMANDS)

    @pytest.mark.parametrize(
        "doc_name, command, fmt",
        list(VALIDATION_CASES.values()),
        ids=list(VALIDATION_CASES),
    )
    def test_validates_once(self, tmp_path, capsys, monkeypatch, doc_name, command, fmt):
        """Only table and simple_form documents are checked, once; a family
        document's table is semicoherent by construction."""
        import structfn.core

        calls = []
        original = structfn.core.validate_semicoherent

        def counted(table):
            calls.append(table.n)
            return original(table)

        monkeypatch.setattr("structfn.core.validate_semicoherent", counted)
        rc, out = run_cli(tmp_path, capsys, doc_name, command, fmt)
        assert rc == EXIT_OK
        assert calls == ([BRIDGE_N] if doc_name in ("bridge_table", "bridge_form") else [])
        if doc_name == "bridge":
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert digest == STDOUT_DIGESTS["bridge", command, fmt]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", ["paths", "cuts", "signature", "counts"])
    def test_answers_without_the_mobius_pass(self, tmp_path, capsys, monkeypatch, command, fmt):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{command} prints no dense transform")

        for holder in ("core", "transform"):  # every module that holds the name
            monkeypatch.setattr(f"structfn.{holder}.mobius_transform", refuse)
        rc, out = run_cli(tmp_path, capsys, "lattice_n20", command, fmt)
        assert rc == EXIT_OK
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == STDOUT_DIGESTS["lattice_n20", command, fmt]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", ["analyze", "dual"])
    def test_dual_fallback_reuses_the_dual_table(self, tmp_path, capsys, monkeypatch, command, fmt):
        import structfn.transform

        lattice_table = table_from_paths(family(LATTICE_N20_PATHS, 20))
        assert minimal_cut_sets(lattice_table).r > R_MAX  # so the dual form is dense
        built = []
        original = structfn.transform.table_from_paths

        def recorded(paths, **kwargs):
            built.append(paths.masks())
            return original(paths, **kwargs)

        for holder in ("transform", "cli"):
            monkeypatch.setattr(f"structfn.{holder}.table_from_paths", recorded)
        rc, out = run_cli(tmp_path, capsys, "lattice_n20", command, fmt)
        assert rc == EXIT_OK
        assert built == [family(LATTICE_N20_PATHS, 20).masks()]
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == STDOUT_DIGESTS["lattice_n20", command, fmt]

    def test_form_fallback_reuses_the_table(self, tmp_path, capsys, monkeypatch):
        table = table_from_paths(family(BRIDGE_PATHS, BRIDGE_N))
        doc = {"n": BRIDGE_N, "table": table.values_string()}

        def refuse(*args, **kwargs):
            raise AssertionError("a table document needs no table built from its paths")

        for holder in ("transform", "cli"):
            monkeypatch.setattr(f"structfn.{holder}.table_from_paths", refuse)
        rc = main(["simple-form", "--max-r", "1", write_doc(tmp_path, doc)])
        assert rc == EXIT_OK
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == STDOUT_DIGESTS["bridge", "simple-form", "text"]

    @pytest.mark.parametrize("command", ["analyze", "dual", "simple-form"])
    def test_forms_skip_the_antichain_check(self, tmp_path, capsys, monkeypatch, command):
        def refuse(*args, **kwargs):
            raise AssertionError("paths read off a table are minimal by construction")

        monkeypatch.setattr("structfn.core.SetFamily.is_antichain", refuse)
        rc, out = run_cli(tmp_path, capsys, "lattice_n20", command, "text")
        assert rc == EXIT_OK
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == STDOUT_DIGESTS["lattice_n20", command, "text"]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", ["paths", "cuts", "counts", "analyze"])
    def test_table_families_stay_masks(self, tmp_path, capsys, monkeypatch, command, fmt):
        """Families read off a table document reach the output as masks, with
        no SubsetMask built between parsing and printing."""
        import structfn.cli

        expected = run_cli(tmp_path, capsys, "bridge_table", command, fmt)
        true_parse = structfn.cli.parse_document

        def refuse(self):
            raise AssertionError("a family read off a table builds no SubsetMask")

        def parse_then_refuse(text):
            system = true_parse(text)
            monkeypatch.setattr(SubsetMask, "__post_init__", refuse)
            return system

        monkeypatch.setattr("structfn.cli.parse_document", parse_then_refuse)
        assert run_cli(tmp_path, capsys, "bridge_table", command, fmt) == expected

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", ["analyze", "dual", "simple-form"])
    def test_renders_one_format(self, tmp_path, capsys, monkeypatch, command, fmt):
        """No renderer of the other format is called, such as _terms_json for
        text or _form_text for JSON."""
        other = 4 if fmt == "text" else 3  # the view's JSON or text renderer

        def refuse(*args, **kwargs):
            raise AssertionError(f"{fmt} output calls a renderer of the other format")

        for name, view in _VIEWS.items():
            monkeypatch.setitem(_VIEWS, name, (*view[:other], refuse, *view[other + 1 :]))
        rc, out = run_cli(tmp_path, capsys, "bridge", command, fmt)
        assert rc == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_DIGESTS["bridge", command, fmt]


# Runs a fresh interpreter: imports structfn and structfn.cli, runs main on
# the arguments if there are any, and reports on stderr whether numpy loaded.
_NUMPY_PROBE = (
    "import sys, structfn, structfn.cli\n"
    "code = structfn.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
    "print('numpy' in sys.modules, file=sys.stderr)\n"
    "sys.exit(code)\n"
)
_FORMATS = ("text", "json")
_RELIABILITY_P = {"float": ["--p", "0.9"], "exact": ["--p", "1/2", "--exact"]}

# id -> (document, arguments before the document), or None for the import alone.
NUMPY_FREE_RUNS = {
    "import": None,
    **{
        f"bridge-{command}-{fmt}": ("bridge", [command, "--format", fmt])
        for command in COMMANDS
        if command not in ("reliability", "verify")
        for fmt in _FORMATS
    },
    **{
        f"bridge-reliability-{kind}-{fmt}": ("bridge", ["reliability", *p, "--format", fmt])
        for kind, p in _RELIABILITY_P.items()
        for fmt in _FORMATS
    },
    **{
        f"lattice_n20-{command}-{fmt}": ("lattice_n20", [command, "--format", fmt])
        for command in ("paths", "cuts", "signature", "counts")
        for fmt in _FORMATS
    },
    # The dual form's Möbius transform is the subtable walk, within its budget.
    "lattice_n20-analyze-text": ("lattice_n20", ["analyze"]),
}
# Positive controls: the dense Möbius passes behind a tripped walk budget, and
# verify's zeta check.
NUMPY_RUNS = {
    "two_of_17-signature-text": ("two_of_17", ["signature"]),
    "bridge-verify-text": ("bridge", ["verify"]),
}


def loads_numpy(tmp_path, run) -> bool:
    """Whether a fresh process that runs the CLI on ``run`` imports numpy."""
    argv = []
    if run is not None:
        doc_name, args = run
        argv = [*args, write_doc(tmp_path, SCOPE_DOCS[doc_name], f"{doc_name}.json")]
    result = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, *argv], capture_output=True, text=True
    )
    assert result.returncode == EXIT_OK, result.stderr
    return result.stderr.splitlines()[-1] == "True"


class TestNumpyScope:
    """numpy is imported on the first dense pass and otherwise not at all."""

    @pytest.mark.parametrize("run", list(NUMPY_FREE_RUNS.values()), ids=list(NUMPY_FREE_RUNS))
    def test_leaves_numpy_unloaded(self, tmp_path, run):
        assert not loads_numpy(tmp_path, run)

    @pytest.mark.parametrize("run", list(NUMPY_RUNS.values()), ids=list(NUMPY_RUNS))
    def test_dense_passes_load_numpy(self, tmp_path, run):
        assert loads_numpy(tmp_path, run)

    @pytest.mark.parametrize("doc_name, trips", [("two_of_17", True), ("lattice_n20", False)])
    def test_walk_budget_picks_the_route(self, doc_name, trips):
        doc = SCOPE_DOCS[doc_name]
        if "table" in doc:
            table = parse_document(json.dumps(doc)).table
        else:  # analyze's dual form is the one transformed
            table = dualize_table(table_from_paths(parse_document(json.dumps(doc)).paths))
        coeffs, work = _subtable_mobius(table.bits, table.n, _mobius_budget(table.n))
        assert (coeffs is None) == trips
        assert (work > _mobius_budget(table.n)) == trips
        # Run to its end, the walk gives the dense passes' terms in their order.
        walked, _ = _subtable_mobius(table.bits, table.n, 1 << 62)
        assert list(walked.items()) == list(_dense_mobius(table.bits, table.n).items())


def family_json(family: SetFamily) -> list[list[int]]:
    """A family's JSON value as the CLI once built it: its members' label lists."""
    return [list(_mask_labels(m)) for m in family.masks()]


def dict_form_json(form: MultilinearForm) -> list[dict]:
    """A form's JSON value as the CLI once built it, for the stdlib to encode."""
    coeffs = form.coeffs
    return [
        {"subset": list(_mask_labels(m)), "coeff": coeffs[m]}
        for m in sorted(coeffs, key=_subset_sort_key)
    ]


SAMPLE_DIR = Path(__file__).resolve().parent.parent / "sample_systems"

# Documents whose JSON output is checked against the stdlib encoder, by name:
# the three sample systems, of which "bridge" is BRIDGE_DOC, the benchmark's
# n = 20, 22 and 24 lattices, whose labels past 16 fill a mask's third byte,
# and parallel 12, whose form has 4,095 terms.
ENCODER_DOCS = {
    **{path.stem: json.loads(path.read_text()) for path in sorted(SAMPLE_DIR.glob("*.json"))},
    "lattice_n20": SCOPE_DOCS["lattice_n20"],
    "lattice_n22": {"n": 22, "paths": [list(p) for p in LATTICE_N22_PATHS]},
    "lattice_n24": SCOPE_DOCS["lattice_n24"],
    "parallel_12": {"n": 12, "paths": [[i] for i in range(1, 13)]},
}
assert ENCODER_DOCS["bridge"] == BRIDGE_DOC
ENCODER_CASES = [
    (doc_name, command)
    for doc_name in ENCODER_DOCS
    for command in COMMANDS
    if not (command == "verify" and ENCODER_DOCS[doc_name]["n"] > VERIFY_N_MAX)
]


def json_text(items) -> str:
    """The CLI's JSON output for a payload whose one key, "value", holds the
    list that ``items`` writes."""
    return _render(Options(fmt="json"), list, lambda: {"value": items}).text


def assert_same_text(out: str, expected: str) -> None:
    """Fail on the first line where out differs from expected. pytest's own
    diff of two long outputs that differ in length can run for minutes."""
    if out != expected:
        got, want = out.splitlines(), expected.splitlines()
        same = (a == b for a, b in zip(got, want))
        i = next((i for i, ok in enumerate(same) if not ok), min(len(got), len(want)))
        pytest.fail(f"line {i + 1}: {got[i:i + 1]!r:.200} != {want[i:i + 1]!r:.200}")


def stdlib_json(value) -> str:
    return json.dumps({"value": value}, indent=2, sort_keys=True)


def reference_form_text(form: MultilinearForm) -> str:
    """A form's text as the CLI once wrote it: each monomial the variables
    x<label> joined by "*", after its coefficient's sign and magnitude."""
    parts = []
    for m in sorted(form.coeffs, key=_subset_sort_key):
        coeff = form.coeffs[m]
        monomial = "*".join(f"x{c}" for c in _mask_labels(m))
        body = monomial if abs(coeff) == 1 else f"{abs(coeff)}*{monomial}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts) if parts else "0"


def seeded_family(rng: random.Random, members: int) -> SetFamily:
    """An n = 24 family of distinct masks that use all three bytes, one of
    them the low byte alone and one the top component alone."""
    masks = {rng.getrandbits(8) | 1, 1 << 23}
    while len(masks) < members:
        masks.add(rng.getrandbits(24) | 1 << rng.randrange(8, 16) | 1 << rng.randrange(16, 24))
    return SetFamily._trusted(24, tuple(sorted(masks, key=_subset_sort_key)))


# The CLI's rendering and its reference, of a seeded n = 24 form and family.
SEEDED_RENDERINGS = {
    "form-json": (
        lambda form, family: json_text(_terms_json(form)),
        lambda form, family: stdlib_json(dict_form_json(form)),
    ),
    "family-json": (
        lambda form, family: json_text(_members_json(family)),
        lambda form, family: stdlib_json(family_json(family)),
    ),
    "form-text": (
        lambda form, family: _form_text(form),
        lambda form, family: reference_form_text(form),
    ),
    "family-text": (
        lambda form, family: str(family),
        lambda form, family: ", ".join(map(_set_str, family.masks())),
    ),
}


def seeded_form(rng: random.Random, terms: int) -> MultilinearForm:
    """An n = 24 form whose masks use all three bytes, with coefficients of
    either sign and magnitudes from 1 to past 10."""
    coeffs = {}
    while len(coeffs) < terms:
        mask = rng.getrandbits(24) | 1 << rng.randrange(8) | 1 << rng.randrange(8, 16)
        coeffs[mask | 1 << rng.randrange(16, 24)] = rng.choice((-1, 1)) * rng.randint(1, 5000)
    coeffs[rng.getrandbits(8) | 1] = -rng.randint(10, 99)  # the low byte alone
    coeffs[1 << 23] = 10
    return MultilinearForm(24, coeffs)


class TestFormJSON:
    """Forms and families are written straight to JSON text, byte for byte
    what the stdlib encoder prints for the term dicts and label lists, and to
    text by the same label writer."""

    @pytest.mark.parametrize(
        "doc_name, command", ENCODER_CASES, ids=[f"{d}-{c}" for d, c in ENCODER_CASES]
    )
    def test_matches_the_stdlib_encoder(self, tmp_path, capsys, doc_name, command):
        doc = ENCODER_DOCS[doc_name]
        extra = ["--p", "1/2", "--exact"] if command == "reliability" else []
        rc = main([command, *extra, "--format", "json", write_doc(tmp_path, doc)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        system = parse_document(json.dumps(doc))
        if system.kind == "paths":
            table = table_from_paths(system.paths)
        else:
            table = table_from_cuts(system.cuts)
        references = {
            "simple_form": lambda: dict_form_json(mobius_transform(table)),
            "dual_simple_form": lambda: dict_form_json(mobius_transform(dualize_table(table))),
            "minimal_path_sets": lambda: family_json(minimal_path_sets(table)),
            "minimal_cut_sets": lambda: family_json(minimal_cut_sets(table)),
            "dual_minimal_path_sets": lambda: family_json(minimal_cut_sets(table)),
        }
        expected = json.loads(out)
        for key in references.keys() & expected.keys():
            expected[key] = references[key]()
        assert_same_text(out, json.dumps(expected, indent=2, sort_keys=True) + "\n")

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("rendering", list(SEEDED_RENDERINGS))
    def test_seeded_n24(self, rendering, seed):
        rng = random.Random(seed)
        form, family = seeded_form(rng, 300), seeded_family(rng, 300)
        written, reference = SEEDED_RENDERINGS[rendering]
        assert written(form, family) == reference(form, family)

    @pytest.mark.parametrize(
        "coeffs",
        [{}, {0: 1}, {0: -12, 5: 3}, {0: 1, 1 << 16: -1}],
        ids=["empty", "constant", "constant-and-low-byte", "constant-and-high-byte"],
    )
    def test_constant_term_and_empty_form(self, coeffs):
        form = MultilinearForm(24, coeffs)
        expected = stdlib_json(dict_form_json(form))
        assert json_text(_terms_json(form)) == expected
        assert ('"subset": []' in expected) == (0 in coeffs)
        assert _form_text(form) == reference_form_text(form)

    @pytest.mark.parametrize("command", ["analyze", "dual", "simple-form", "paths", "cuts"])
    def test_no_term_reaches_the_stdlib_encoder(self, tmp_path, capsys, monkeypatch, command):
        """Neither a form's terms nor a family's label lists go through json.dumps."""
        import structfn.cli

        original = structfn.cli.json.dumps
        payloads = []

        def checked(obj, *args, **kwargs):
            payloads.append(obj)
            for key, value in obj.items():
                if isinstance(value, list) and any(
                    isinstance(v, list) or isinstance(v, dict) and "coeff" in v for v in value
                ):
                    raise AssertionError(f"the items of {key!r} went through json.dumps")
            return original(obj, *args, **kwargs)

        path = write_doc(tmp_path, SCOPE_DOCS["lattice_n20"])
        monkeypatch.setattr(structfn.cli.json, "dumps", checked)
        rc = main([command, "--format", "json", path])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert len(payloads) == 1
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == STDOUT_DIGESTS["lattice_n20", command, "json"]
