import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import circleperm
from circleperm import cli as cli_mod
from circleperm import verify as verify_mod
from circleperm.cli import build_parser, main, parse_element
from circleperm.errors import InvariantViolation, MalformedOperand
from circleperm.families import ConstructionParams, build_family
from circleperm.fields import EXHAUSTIVE_CAP
from circleperm.serialize import (
    CatalogEntry,
    dumps_line,
    entry_to_json,
    element_from_json,
    element_to_json,
    field_desc,
    ext_to_json,
    params_from_json,
    params_to_json,
    poly_from_json,
    poly_to_json,
)
from circleperm.polynomials import SparsePolynomial
from circleperm.qm import apply_qm, classify_catalog
from circleperm.verify import PermutationReport, verify_both
from conftest import get_ext


NON_CUBE = "aux must be a nonzero non-cube in the subfield"
BELOW_DEGREE = {3: ["q = 2 is less than deg R = 3"], 4: ["q = 2 is less than deg R = 4"]}
ODD_FIELD = '{"p": 5, "modulus": [3, 1]}'  # GF(5), not a GF(q^2)
ODD_DEGREE = "quadratic-extension descriptor needs even degree"
X0 = '{"terms": [[1, {"pow": 0}]]}'


def q1_entry(ext25):
    big = ext25.big
    g = big.generator
    params = ConstructionParams("Q1", -big.one(), big.one(), g, g, None)
    built = build_family("Q1", params, ext25)
    report = verify_both(built.r, built.h, built.poly, ext25)
    return CatalogEntry(ext25, built, report, "user")


def report_from_json(d, ctx):
    witness = d.get("witness")
    return PermutationReport(
        is_permutation=d["is_permutation"],
        method=d["method"],
        gcd_ok=d.get("gcd_ok"),
        circle_ok=d.get("circle_ok"),
        witness=tuple(element_from_json(w, ctx) for w in witness) if witness else None,
    )


def ext_from_json(d):
    """The field of a descriptor, read as qm-classify reads a catalog's."""
    return cli_mod._quad(*field_desc(d))


def entry_from_json(d):
    """Parsed view of a catalog line: (ext, params, poly, r, h, report, meta)."""
    ext = ext_from_json(d["field"])
    big = ext.big
    return {
        "ext": ext,
        "family": d["family"],
        "params": params_from_json(d["params"], ext),
        "poly": poly_from_json(d["poly"], big),
        "r": d["r"],
        "h": poly_from_json(d["h"], big),
        "term_count": d["term_count"],
        "report": report_from_json(d["report"], big),
        "provenance": d["provenance"],
    }


def poly_term_by_term(d, ctx):
    """A polynomial line read one term at a time: the shape of each term,
    then element_from_json, then SparsePolynomial's merge and checks."""
    terms = d.get("terms") if isinstance(d, dict) else None
    pairs = []
    for t in terms if isinstance(terms, list) else [None]:
        if not (isinstance(t, list) and len(t) == 2 and type(t[0]) is int):
            raise MalformedOperand(f'polynomial must be {{"terms": [[exp, element], ...]}}, not {d!r}')
        pairs.append((t[0], element_from_json(t[1], ctx)))
    return SparsePolynomial(ctx, pairs)


class TestSerialization:
    def test_element_forms(self, ext25):
        big = ext25.big
        x = big.gen_pow(7)
        assert element_to_json(x) == {"pow": 7}
        assert element_from_json({"pow": 7}, big) == x
        assert element_from_json({"coords": list(x.coords())}, big) == x
        z = big.zero()
        assert element_to_json(z) == {"coords": [0, 0]}

    def test_field_round_trip(self, ext25, capsys):
        desc = ext_to_json(ext25)
        assert ext_to_json(ext_from_json(desc)) == desc
        assert main(["field-info", "--field", json.dumps(desc)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert {k: info[k] for k in desc} == desc and info["q"] == 5

    def test_poly_round_trip_sorted_desc(self, ext25):
        big = ext25.big
        f = SparsePolynomial(big, [(3, big.gen_pow(6)), (15, big.gen_pow(16))])
        d = poly_to_json(f)
        assert [t[0] for t in d["terms"]] == [15, 3]
        assert poly_from_json(d, big) == f

    @pytest.mark.parametrize("d", [
        {"terms": [[3, {"coords": [1, 2]}], [1, {"coords": [0, 0]}], [0, {"coords": [1]}]]},
        {"terms": [[3, {"pow": 0}], [5, {"pow": 1}], [3, {"pow": 0}]]},  # merges
        # over GF(5^2) 1 + g^12 = 0, and X^3 comes back after X^5
        {"terms": [[3, {"pow": 0}], [5, {"pow": 1}], [3, {"pow": 12}], [3, {"pow": 4}]]},
        {"terms": [[3, {"pow": 2}], [3, {"coords": [0, 0]}]]},
        {"terms": [[2, {"pow": 1}], [-1, {"pow": 0}]]},
        {"terms": [[True, {"pow": 0}]]},
        {"terms": [[2, {"pow": 1}], [1, {"pow": False}]]},
        {"terms": [[2, {"pow": 7, "coords": [1, 1]}]]},
        {"terms": [[4, {"pow": 24}], [3, {"pow": -1}], [2, {"pow": -25}],
                   [1, {"pow": 10**30}], [0, {"pow": -10**30}]]},
        {"terms": [[30, {"pow": 5}], [24, {"pow": 0}]]},  # exponents above m stay
        {"terms": []},
        {"terms": [5]},
        {"terms": [[2, {"pow": 1}], [1]]},
        {"terms": [[2, {"pow": 1}], [1, 2, 3]]},
        {"terms": [[1.0, {"pow": 0}]]},
        {"terms": [[1, {"pow": 1.0}]]},
        {"terms": [[1, 5]]},
        {"terms": [[1, {}]]},
        {"terms": {"1": {"pow": 0}}},
        {},
        [[1, {"pow": 0}]],
    ])
    @pytest.mark.parametrize("field", [(5, 1), (2, 11)], ids=["GF(5^2)", "GF(2^22)"])
    def test_poly_from_json_reads_term_by_term(self, d, field):
        # the one-pass route on tabled fields against the term-by-term reader;
        # GF(2^22) has no tables, so it is the term-by-term route itself
        big = get_ext(*field).big
        try:
            want = poly_term_by_term(d, big)
        except Exception as exc:
            with pytest.raises(type(exc)) as got:
                poly_from_json(d, big)
            assert str(got.value) == str(exc)
        else:
            got = poly_from_json(d, big)
            assert got == want and list(got.terms) == list(want.terms)

    def test_params_round_trip(self, ext25):
        big = ext25.big
        g = big.generator
        params = ConstructionParams("Q1", -big.one(), big.one(), g, g, None)
        d = params_to_json(params)
        back = params_from_json(d, ext25)
        assert params_to_json(back) == d
        assert "aux" not in d

    def test_entry_round_trip_bit_exact(self, ext25):
        entry = q1_entry(ext25)
        line = dumps_line(entry_to_json(entry))
        parsed = entry_from_json(json.loads(line))
        rebuilt = {
            "field": ext_to_json(parsed["ext"]),
            "family": parsed["family"],
            "params": params_to_json(parsed["params"]),
            "poly": poly_to_json(parsed["poly"]),
            "r": parsed["r"],
            "h": poly_to_json(parsed["h"]),
            "term_count": parsed["term_count"],
            "report": json.loads(line)["report"],
            "provenance": parsed["provenance"],
        }
        assert dumps_line(rebuilt) == line

    def test_entry_requires_both_verified(self, ext25):
        entry = q1_entry(ext25)
        bad_report = entry.report.__class__(is_permutation=True, method="exhaustive")
        with pytest.raises(InvariantViolation):
            CatalogEntry(ext25, entry.built, bad_report, "user")


class TestElementLiterals:
    def test_forms(self, ext25):
        big = ext25.big
        assert parse_element("g", ext25) == big.generator
        assert parse_element("g^7", ext25) == big.gen_pow(7)
        assert parse_element("-1", ext25) == -big.one()
        assert parse_element("3", ext25) == big.from_int(3)
        assert parse_element("[2,3]", ext25) == big.element([2, 3])
        assert parse_element("-g^2", ext25) == -big.gen_pow(2)


class TestCommands:
    def test_construct_single(self, capsys):
        rc = main([
            "construct", "--p", "5", "--m", "1", "--family", "Q1",
            "--beta", "-1", "--delta", "g", "--delta-t", "g",
        ])
        assert rc == 0
        entry = json.loads(capsys.readouterr().out)
        assert entry["report"]["is_permutation"] is True
        assert entry["poly"]["terms"] == [
            [15, {"pow": 16}], [11, {"pow": 19}], [7, {"pow": 22}], [3, {"pow": 6}]
        ]

    def test_construct_invalid_params_exit_2(self, capsys):
        rc = main([
            "construct", "--p", "5", "--m", "1", "--family", "Q1",
            "--beta", "-1", "--delta", "g", "--delta-t", "g^3",
        ])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["violations"]

    @pytest.mark.parametrize("family,p,m,aux,d", [("Q1", "5", "1", [], 3),
                                                  ("P1", "2", "2", ["--aux", "1"], 4)])
    def test_construct_zero_beta_reports_violations(self, capsys, family, p, m, aux, d):
        # beta = 0 has no inverse: beta_t is zero, and validation names both
        rc = main(["construct", "--p", p, "--m", m, "--family", family, "--beta", "0",
                   "--delta", "g", "--delta-t", "g", *aux])
        assert rc == 2
        violations = json.loads(capsys.readouterr().err)["violations"]
        assert violations[:3] == [
            "beta is not on the unit circle", "beta_t is not on the unit circle",
            f"beta relation 1 + beta_t*beta^{d} = 0 fails"]

    def test_construct_grid_stream(self, capsys):
        rc = main([
            "construct", "--p", "2", "--m", "2", "--family", "B1",
            "--grid", "--max-count", "7",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 7
        assert all(json.loads(l)["provenance"] == "grid" for l in lines)

    def test_grid_max_count_zero_emits_nothing(self, capsys):
        rc = main([
            "construct", "--p", "2", "--m", "2", "--family", "B1",
            "--grid", "--max-count", "0",
        ])
        assert rc == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flag,value", [
        ("--max-count", "-1"), ("--delta-stride", "-2"), ("--delta-stride", "0"),
        ("--delta-t-stride", "-1"),
    ])
    def test_grid_malformed_limits_exit_2(self, capsys, tmp_path, flag, value):
        out = tmp_path / "cat.csv"
        rc = main([
            "construct", "--p", "2", "--m", "2", "--family", "B1",
            "--grid", flag, value, "--format", "csv", "--out", str(out),
        ])
        assert rc == 2
        assert "ValueError" in json.loads(capsys.readouterr().err)["error"]
        assert not out.exists()  # rejected before any output

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("operands", [
        ["--delta", "g", "--delta-t", "g^3"],
        ["--beta", "-1", "--delta", "g", "--delta-t", "g^3"],
    ], ids=["no-beta", "excluded-delta-t"])
    def test_rejected_single_leaves_out_file(self, capsys, tmp_path, fmt, operands):
        out = tmp_path / f"kept.{fmt}"
        out.write_bytes(b"earlier catalog\n")
        rc = main(["construct", "--p", "5", "--m", "1", "--family", "Q1", *operands,
                   "--format", fmt, "--out", str(out)])
        assert rc == 2
        assert out.read_bytes() == b"earlier catalog\n"

    @pytest.mark.parametrize("p,m,family,violations", [
        ("7", "1", "Q1", ["q = 7 is not 2 mod 3"]),
        ("2", "3", "P4", [NON_CUBE]),
        *[("2", "1", family, BELOW_DEGREE[3]) for family in ("Q1", "Q2a", "Q2b", "Q2c")],
        *[("2", "1", family, BELOW_DEGREE[4]) for family in ("P1", "P2", "P3", "B1", "B2")],
        *[("2", "1", family, BELOW_DEGREE[4] + [NON_CUBE]) for family in ("P4", "P5", "P6")],
    ], ids=["Q1-q7", "P4-q8", "Q1-q2", "Q2a-q2", "Q2b-q2", "Q2c-q2", "P1-q2", "P2-q2",
            "P3-q2", "B1-q2", "B2-q2", "P4-q2", "P5-q2", "P6-q2"])
    def test_rejected_grid_q_leaves_out_file(self, capsys, tmp_path, p, m, family, violations):
        # the row rejects every tuple at this q: exit 2 as a single construction does
        out = tmp_path / "kept.jsonl"
        out.write_bytes(b"earlier catalog\n")
        rc = main(["construct", "--p", p, "--m", m, "--family", family, "--grid",
                   "--out", str(out)])
        assert rc == 2
        assert out.read_bytes() == b"earlier catalog\n"
        assert json.loads(capsys.readouterr().err) == {"violations": violations}

    def test_grid_worker_order_fixed(self, capsys):
        # catalog lines carry no timing: two runs print the same bytes
        argv = ["construct", "--p", "2", "--m", "2", "--family", "B2", "--grid"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert len(first.strip().splitlines()) == 600

    def test_csv_format(self, capsys):
        rc = main([
            "construct", "--p", "2", "--m", "2", "--family", "B1",
            "--grid", "--max-count", "2", "--format", "csv",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("family,")
        assert lines[1].startswith("B1,2,4,")

    def test_verify_exit_codes(self, capsys):
        ok = main(["verify", "--p", "5", "--m", "1", "--poly",
                   '{"terms": [[3, {"pow": 0}]]}'])
        assert ok == 1  # X^3 does not permute GF(25): gcd(3, 24) = 3
        cube_on_gf5 = main(["verify", "--field", '{"p":5,"modulus":[3,1]}',
                            "--poly", '{"terms": [[3, {"pow": 0}]]}'])
        assert cube_on_gf5 == 0
        sq = main(["verify", "--p", "3", "--m", "1", "--poly",
                   '{"terms": [[2, {"pow": 0}]]}'])
        assert sq == 1
        out = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert out[-1]["witness"] is not None
        # the zero polynomial has no (r, h) and gets the exhaustive verdict
        zero = main(["verify", "--p", "5", "--m", "1", "--poly", '{"terms": []}'])
        assert zero == 1
        assert json.loads(capsys.readouterr().out)["witness"] is not None

    def test_qm_test_exit_codes(self, capsys):
        f = '{"terms": [[3, {"pow": 1}], [7, {"pow": 3}]]}'
        g_ineq = '{"terms": [[3, {"pow": 1}]]}'
        assert main(["qm-test", "--p", "5", "--m", "1", "--f", f, "--g", f]) == 0
        res = json.loads(capsys.readouterr().out)
        assert res["witness"]["d"] == 1
        assert main(["qm-test", "--p", "5", "--m", "1", "--f", f, "--g", g_ineq]) == 1

    def test_qm_classify(self, tmp_path, capsys):
        argv = ["construct", "--p", "2", "--m", "2", "--family", "B1", "--grid",
                "--max-count", "12", "--out", str(tmp_path / "cat.jsonl")]
        assert main(argv) == 0
        rc = main(["qm-classify", "--catalog", str(tmp_path / "cat.jsonl")])
        assert rc == 0
        part = json.loads(capsys.readouterr().out)
        covered = sorted(i for cls in part["classes"] for i in cls)
        assert covered == list(range(12))
        assert len(part["representatives"]) == len(part["classes"])

    def test_qm_classify_mixed_catalog(self, tmp_path, capsys):
        # pow and coords elements, a repeated exponent that merges, a pair that
        # cancels, exponents above m, odd-degree lines and twisted members,
        # shuffled: the command's partition is classify_catalog's on the same
        # lines read term by term
        ext = get_ext(3, 2)
        big = ext.big
        m = big.order - 1
        rnd = random.Random(31)
        bases = [SparsePolynomial(big, {3: big.one(), 1: big.generator})]
        bases += [SparsePolynomial(big, [(e, big.gen_pow(rnd.randrange(m)))
                                         for e in rnd.sample(range(m + 1), n)])
                  for n in (2, 3, 3, 4)]
        members = [apply_qm(f, big.gen_pow(rnd.randrange(m)), big.gen_pow(rnd.randrange(m)), d)
                   for f in bases for d in (1, 7, 11, 13)]
        catalog = []
        for i, f in enumerate(members):
            terms = poly_to_json(f)["terms"]
            e, c = f.sorted_terms()[0]
            a = big.gen_pow(rnd.randrange(m))
            if i % 4 == 1:
                terms = [[k, {"coords": list(x.coords())}] for k, x in f.sorted_terms()]
            elif i % 4 == 2 and a != c:  # c = a + 0 + (c - a)
                terms = ([[e, element_to_json(a)], [e, {"coords": [0, 0, 0, 0]}]] + terms[1:]
                         + [[e, element_to_json(c - a)]])
            elif i % 4 == 3:  # X^(e + m) for X^e, and g^5 - g^5 at X^(2m + 1)
                terms = ([[e + m if e else e, terms[0][1]]] + terms[1:]
                         + [[2 * m + 1, {"pow": 5}], [2 * m + 1, {"pow": 5 + m // 2}]])
            catalog.append(terms)
        rnd.shuffle(catalog)
        assert any(max(e for e, _ in t) % 2 for t in catalog)
        path = tmp_path / "cat.jsonl"
        field = ext_to_json(ext)
        path.write_text("".join(dumps_line({"field": field, "poly": {"terms": t}}) + "\n"
                                for t in catalog))
        assert main(["qm-classify", "--catalog", str(path)]) == 0
        polys = [poly_term_by_term({"terms": t}, big) for t in catalog]
        part = classify_catalog(polys, ext)
        assert len(part.classes) == len(bases)
        assert json.loads(capsys.readouterr().out) == {
            "classes": part.classes, "representatives": part.representatives}

    def test_qm_classify_single_entry_errors(self, tmp_path, capsys):
        # no pair is compared in a one-entry catalog; the cap and the zero
        # polynomial are still reported, and so are an empty catalog and one
        # that mixes fields
        cat = tmp_path / "cat.jsonl"
        field = ext_to_json(get_ext(2, 2))
        x = {"terms": [[1, {"pow": 0}]]}
        cat.write_text(dumps_line({"field": field, "poly": x}))
        assert main(["qm-classify", "--catalog", str(cat)]) == 0
        cat.write_text(dumps_line({"field": ext_to_json(get_ext(2, 11)), "poly": x}))
        assert main(["qm-classify", "--catalog", str(cat)]) == 3
        cat.write_text(dumps_line({"field": field, "poly": {"terms": []}}))
        assert main(["qm-classify", "--catalog", str(cat)]) == 2
        assert "ZeroInput" in capsys.readouterr().err
        cat.write_text("5\n")
        assert main(["qm-classify", "--catalog", str(cat)]) == 2
        assert "MalformedOperand" in capsys.readouterr().err
        cat.write_text(dumps_line({"field": json.loads(ODD_FIELD), "poly": x}))
        assert main(["qm-classify", "--catalog", str(cat)]) == 2
        assert ODD_DEGREE in capsys.readouterr().err
        for text, message in [("", "empty catalog"), ("\n  \n", "empty catalog"),
                              (dumps_line({"field": field, "poly": x}) + "\n"
                               + dumps_line({"field": ext_to_json(get_ext(3, 1)), "poly": x}),
                               "catalog mixes field descriptors")]:
            cat.write_text(text)
            assert main(["qm-classify", "--catalog", str(cat)]) == 2
            assert message in capsys.readouterr().err

    def test_field_info(self, capsys):
        assert main(["field-info", "--p", "2", "--m", "2"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["q"] == 4 and info["order"] == 16
        assert info["generator_is_root"] is True

    def test_verdict_disagreement_exits_4(self, monkeypatch, capsys):
        # an internal invariant failure must not read as "not a permutation"
        real = verify_mod.criterion_check

        def flipped(r, h, ext):
            rep = real(r, h, ext)
            rep.is_permutation = not rep.is_permutation
            return rep

        monkeypatch.setattr(verify_mod, "criterion_check", flipped)
        rc = main(["verify", "--p", "5", "--m", "1", "--poly", '{"terms": [[3, {"pow": 0}]]}'])
        out, err = capsys.readouterr()
        assert rc == 4 and out == ""
        assert "Traceback" not in err
        assert "disagree" in json.loads(err)["error"]

    @pytest.mark.parametrize("grid", [[], ["--grid", "--max-count", "1"]], ids=["single", "grid"])
    def test_construct_non_permutation_exits_4(self, monkeypatch, capsys, grid):
        # a tuple that passed validation and fails to permute is a package
        # defect, not an input error
        def refuted(r, h, f, ext):
            return PermutationReport(is_permutation=False, method="both", gcd_ok=True,
                                     circle_ok=False)

        monkeypatch.setattr(cli_mod, "verify_both", refuted)
        single = ["--beta", "-1", "--delta", "g", "--delta-t", "g"]
        rc = main(["construct", "--p", "5", "--m", "1", "--family", "Q1", *(grid or single)])
        out, err = capsys.readouterr()
        assert rc == 4 and out == ""
        assert "internal error" in json.loads(err)["error"]

    @pytest.mark.parametrize("argv,error", [
        pytest.param(["verify", "--p", "2", "--m", "2", "--poly", '{"terms": 5}'],
                     "MalformedOperand", id="argv0"),
        pytest.param(["verify", "--p", "2", "--m", "2", "--poly", '{"terms": [[1, "x"]]}'],
                     "MalformedOperand", id="argv1"),
        pytest.param(["field-info", "--p", "2", "--m", "2", "--modulus", "5"],
                     "MalformedOperand", id="argv2"),
        pytest.param(["construct", "--p", "5", "--m", "1", "--family", "Q1",
                      "--beta", '[1, "a"]', "--delta", "g", "--delta-t", "g"],
                     "MalformedOperand", id="argv3"),
        pytest.param(["field-info", "--field", '{"p": 5, "modulus": [2, 4, 1], "generator": "z"}'],
                     "MalformedOperand", id="argv4"),
        # JSON true and false are not integers, though Python's bool is an int
        pytest.param(["verify", "--p", "2", "--m", "2", "--poly",
                      '{"terms": [[1, {"coords": [true, false, false, false]}]]}'],
                     "MalformedOperand", id="bool-coords"),
        pytest.param(["verify", "--p", "2", "--m", "2", "--poly", '{"terms": [[1, {"pow": true}]]}'],
                     "MalformedOperand", id="bool-pow"),
        pytest.param(["verify", "--p", "2", "--m", "2", "--poly", '{"terms": [[true, {"pow": 1}]]}'],
                     "MalformedOperand", id="bool-exponent"),
        pytest.param(["field-info", "--field", '{"p": true, "modulus": [1, 1]}'],
                     "MalformedOperand", id="bool-p"),
        # p and m are checked before the modulus search
        pytest.param(["field-info", "--p", "0", "--m", "1"], "NotPrime", id="p0"),
        pytest.param(["field-info", "--p", "1", "--m", "1"], "NotPrime", id="p1"),
        pytest.param(["field-info", "--p", "-3", "--m", "1"], "NotPrime", id="p-3"),
        pytest.param(["construct", "--p", "1", "--m", "1", "--family", "Q1", "--grid"],
                     "NotPrime", id="construct-p1"),
        pytest.param(["verify", "--p", "1", "--m", "2", "--poly", '{"terms": [[5, {"pow": 0}]]}'],
                     "NotPrime", id="verify-p1"),
        pytest.param(["field-info", "--p", "2", "--m", "0"], "ValueError", id="m0"),
        pytest.param(["field-info", "--field",
                      '{"p": 5, "modulus": [2, 4, 1], "generator": [0, 0]}'],
                     "ZeroInput", id="zero-generator"),
        # rows from here on give the whole message
        pytest.param(["field-info", "--field", '{"p": 5, "modulus": [2, 4, 1], "generator": [1]}'],
                     "ZeroInput: supplied generator is not primitive", id="generator-not-primitive"),
        pytest.param(["construct", "--field", ODD_FIELD, "--family", "Q1", "--grid"],
                     f"ZeroInput: {ODD_DEGREE}", id="construct-odd-degree"),
        pytest.param(["qm-test", "--field", ODD_FIELD, "--f", X0, "--g", X0],
                     f"ZeroInput: {ODD_DEGREE}", id="qm-test-odd-degree"),
        pytest.param(["construct", "--family", "Q1", "--grid"],
                     "CirclepermError: need --field or both --p and --m", id="no-field"),
        pytest.param(["verify", "--p", "5", "--m", "1", "--poly", '{"terms": [[-1, {"pow": 0}]]}'],
                     "ValueError: negative exponent", id="negative-exponent"),
        pytest.param(["construct", "--p", "5", "--m", "1", "--family", "Q1",
                      "--beta", "[1,2,3]", "--delta", "g", "--delta-t", "g"],
                     "ValueError: coordinate vector longer than extension degree", id="long-coords"),
    ])
    def test_malformed_operand_exits_2(self, argv, error, capsys):
        # exit 1 means "not a permutation", so a bad operand must not reach it
        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert "Traceback" not in err
        # a row names the error's type, or its whole message
        assert re.match(rf"{re.escape(error)}(: |$)", json.loads(err)["error"])

    def test_qm_cap_defaults(self, capsys):
        # the cap is a constant: no subcommand takes --cap any more
        assert verify_mod.EXHAUSTIVE_CAP == EXHAUSTIVE_CAP
        ap = build_parser()
        for argv in (["qm-test", "--f", "{}", "--g", "{}"],
                     ["qm-classify", "--catalog", "cat.jsonl"],
                     ["construct", "--family", "P1"],
                     ["verify", "--poly", "{}"]):
            with pytest.raises(SystemExit) as exc:
                ap.parse_args(argv + ["--cap", "100"])
            assert exc.value.code == 2
            assert "--cap" in capsys.readouterr().err

    def test_cap_exit_3(self, tmp_path, capsys):
        # GF(2^22) is above EXHAUSTIVE_CAP: every command that would evaluate,
        # enumerate or classify over it exits 3 with the one message, and a
        # refused construct leaves an existing --out file as it was
        x5 = '{"terms": [[5, {"pow": 0}]]}'
        out, catalog = tmp_path / "out.jsonl", tmp_path / "cat.jsonl"
        out.write_text("kept\n")
        catalog.write_text(dumps_line({"field": ext_to_json(get_ext(2, 11)),
                                       "poly": json.loads(x5)}))
        big = ["--p", "2", "--m", "11"]
        for argv in (["construct", *big, "--family", "B1", "--grid", "--out", str(out)],
                     ["construct", *big, "--family", "P1", "--beta", "1", "--delta", "g",
                      "--delta-t", "g"],
                     ["verify", *big, "--poly", x5],
                     ["qm-test", *big, "--f", x5, "--g", x5],
                     ["qm-classify", "--catalog", str(catalog)]):
            assert main(argv) == 3, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert json.loads(captured.err) == {
                "error": f"field order {1 << 22} above EXHAUSTIVE_CAP {EXHAUSTIVE_CAP}"}
        assert out.read_text() == "kept\n"

    def test_repro_reports_known_defect(self, capsys):
        rc = main(["repro"])
        out = capsys.readouterr().out
        assert rc == 1  # one embedded case is defective at the source
        assert out.count("PASS") == 11
        assert out.count("FAIL") == 1
        assert "11/12" in out

    def test_file_operands(self, tmp_path, capsys, monkeypatch):
        # each operand is loaded once, on the quadratic and the odd-degree path
        loads = []
        load = cli_mod._load_json_operand
        monkeypatch.setattr(cli_mod, "_load_json_operand",
                            lambda text: loads.append(text) or load(text))
        poly = tmp_path / "f.json"
        poly.write_text('{"terms": [[1, {"pow": 0}]]}')
        field = tmp_path / "field.json"
        field.write_text(json.dumps(ext_to_json(get_ext(5, 1))))
        assert main(["verify", "--field", str(field), "--poly", str(poly)]) == 0
        odd = tmp_path / "odd.json"
        odd.write_text('{"p": 5, "modulus": [3, 1]}')
        assert main(["verify", "--field", str(odd), "--poly", str(poly)]) == 0
        assert loads == [str(field), str(poly), str(odd), str(poly)]


def test_package_needs_only_the_standard_library():
    # no runtime dependencies: under -S (no site-packages) and -I (no
    # PYTHONPATH, no script directory), with only src added to sys.path,
    # every circleperm module imports and field-info runs
    pkg = Path(circleperm.__file__).resolve().parent
    modules = ["circleperm"] + [f"circleperm.{path.stem}" for path in sorted(pkg.glob("*.py"))
                                if path.stem != "__init__"]
    code = (f"import importlib, sys; sys.path.insert(0, {str(pkg.parent)!r}); "
            f"[importlib.import_module(name) for name in {modules!r}]; "
            "from circleperm import cli; "
            "sys.exit(cli.main(['field-info', '--p', '2', '--m', '2']))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["p"] == 2
