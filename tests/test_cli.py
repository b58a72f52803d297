import dataclasses
import itertools
import json
import os
import re
import resource
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftchar import charfact, cli, gen, lifting, ncfock, numlin, rowcon
from liftchar.charfact import lifting_char_fn, row_char_fn
from liftchar.cli import (
    INTERTWINE_TOL,
    NORM_SLACK,
    _charfn_checks,
    _packaged_scenario,
    main,
    mat_from_json,
    mat_from_packed,
    mat_to_json,
    mat_to_packed,
    parse_scenario,
    run_battery,
)
from liftchar.errors import ParseError, ValidationError
from liftchar.gen import random_iterated_lifting, random_row_contraction
from liftchar.lifting import extract_gamma


def write_scenario(tmp_path, name="scen.json", keep=(), **overrides):
    """A scenario file: the defaults below with `overrides` applied; a key set
    to None is left out, unless it is named in `keep` (then it is written as null)."""
    doc = {
        "schema": 1,
        "id": "test",
        "d": 1,
        "degree": 3,
        "tolerance": 1e-8,
        "C": [[[[0.5, 0.0]]]],
        "A": [[[[0.0, 0.0]]]],
        "B": [[[[0.5, 0.0]]]],
    }
    doc.update(overrides)
    doc = {k: v for k, v in doc.items() if v is not None or k in keep}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _boundary_scenario(tmp_path, key):
    """C = 0.99, A = 0 and a coupling of norm 1 + 8e-11, given as gamma or as B:
    E itself passes as a row contraction, but the coupling's defect is not PSD."""
    g = 1 + 8e-11
    if key == "gamma":
        return write_scenario(tmp_path, C=[[[[0.99, 0.0]]]], B=None, gamma=[[[g, 0.0]]])
    return write_scenario(tmp_path, C=[[[[0.99, 0.0]]]], B=[[[[np.sqrt(1 - 0.99**2) * g, 0.0]]]])


def _rank_boundary_scenario(tmp_path, draw, eps):
    """One-level draw `draw` of the rank-boundary population: d=2, dims 2,
    degree 4, row(A) rescaled to norm 1 - eps, the coupling given as gamma."""
    rng = np.random.default_rng([5, draw])
    c = random_row_contraction(rng, 2, 2)
    a = random_row_contraction(rng, 2, 2)
    a = rowcon.RowContraction(a.ops * ((1 - eps) / numlin.operator_norm(a.row)))
    g = gen.random_contraction_between(rng, rowcon.star_defect(a).space,
                                       rowcon.defect(c).space)
    return write_scenario(tmp_path, d=2, degree=4, B=None, gamma=mat_to_json(g.matrix),
                          C=[mat_to_json(m) for m in c.ops],
                          A=[mat_to_json(m) for m in a.ops])


def test_mat_json_round_trip():
    m = np.array([[1 + 2j, 0.5], [0, -1j]])
    np.testing.assert_allclose(mat_from_json(mat_to_json(m), "m"), m)


@pytest.mark.parametrize("entry", ["0.5", True, False, None], ids=repr)
def test_mat_from_json_refuses_an_entry_that_is_not_a_number(entry):
    # numpy alone reads "0.5" as 0.5 and true as 1.0
    with pytest.raises(ParseError, match=r"^C\[0\]: entries must be JSON numbers$"):
        mat_from_json([[[0.5, 0.0], [entry, 0.0]]], "C[0]")


MATRIX_CASES = pytest.mark.parametrize("m", [
    np.random.default_rng(0).standard_normal((6, 12))
    + 1j * np.random.default_rng(1).standard_normal((6, 12)),
    np.array([[-0.0, 0.0 - 0.0j], [complex(-0.0, -0.0), 1e-300j]]),
    np.array([[1e-300j, -1e300 + 5e-324j]]),
    np.zeros((0, 3), dtype=complex),
    np.zeros((3, 0), dtype=complex),
    np.array([1.5, -2.0]),
    np.array(0.25j),
], ids=["random", "signed-zeros", "tiny-huge", "0x3", "3x0", "vector", "scalar"])


def assert_same_bits(a, b):
    """Equal shapes and equal bytes, so that -0.0 differs from 0.0."""
    a, b = np.ascontiguousarray(a, dtype="<c16"), np.ascontiguousarray(b, dtype="<c16")
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8))


@MATRIX_CASES
def test_mat_json_matches_elementwise_version(m):
    # the per-element comprehension mat_to_json used to be
    ref = [[[float(z.real), float(z.imag)] for z in row]
           for row in np.atleast_2d(np.asarray(m, dtype=complex))]
    assert json.dumps(mat_to_json(m), indent=2) == json.dumps(ref, indent=2)


@MATRIX_CASES
def test_mat_json_round_trip_keeps_every_bit(m):
    data = json.loads(json.dumps(mat_to_json(m)))
    if 0 in np.atleast_2d(m).shape:
        # no [re, im] pair gives an empty matrix its shape, so the reader refuses it
        with pytest.raises(ParseError, match=r"^m: expected rows of \[re, im\] pairs"):
            mat_from_json(data, "m")
    else:
        assert_same_bits(mat_from_json(data, "m"), np.atleast_2d(m))


@MATRIX_CASES
def test_mat_packed_round_trip_keeps_every_bit(m):
    packed = json.loads(json.dumps(mat_to_packed(m)))
    assert packed["shape"] == list(np.atleast_2d(m).shape)
    assert_same_bits(mat_from_packed(packed, "m"), np.atleast_2d(m))


@pytest.mark.parametrize("data, message", [
    ({"shape": [2, 2], "data": mat_to_packed(np.eye(2))["data"][:-8]}, "60 bytes of data"),
    ({"shape": [3, 2], "data": mat_to_packed(np.eye(2))["data"]}, "64 bytes of data"),
    ({"shape": [1, 1], "data": "not base64!"}, "malformed packed matrix"),
    ({"shape": [1, 1], "data": "AAAAAAAAAAAAAAAAAAAAAA"}, "malformed packed matrix"),
    ({"shape": [-1, -1], "data": mat_to_packed(np.eye(1))["data"]}, "shape must be"),
    ({"shape": [1, 1, 1], "data": mat_to_packed(np.eye(1))["data"]}, "shape must be"),
    ({"data": ""}, "malformed packed matrix"),
    ([[[0.5, 0.0]]], "malformed packed matrix"),
], ids=["truncated", "shape-product", "not-base64", "unpadded", "negative-shape",
        "three-dims", "no-shape", "pairs"])
def test_mat_from_packed_rejects(data, message):
    with pytest.raises(ParseError, match=f"^m: {message}"):
        mat_from_packed(data, "m")


class TestParseScenario:
    def test_packaged_example1(self):
        scen = parse_scenario(_packaged_scenario("example1.json"))
        assert scen.d == 1 and scen.degree == 2
        assert scen.iterated is not None
        np.testing.assert_allclose(np.hstack(scen.iterated.second.E.ops),
                                   0.5 * np.ones((3, 1)) @ np.array([[1, 0, 0]]),
                                   atol=1e-12)
        first = scen.first
        assert extract_gamma(first.C, first.A, first.B)[1] < 1e-12

    def test_packaged_example2(self):
        scen = parse_scenario(_packaged_scenario("example2.json"))
        s2 = 1 / np.sqrt(2)
        np.testing.assert_allclose(np.hstack(scen.first.E.ops),
                                   s2 * np.array([[0, 0], [1, 0]]), atol=1e-12)

    def test_missing_field(self, tmp_path):
        path = write_scenario(tmp_path, B=None)
        with pytest.raises(ValidationError):
            parse_scenario(path)

    def test_bad_schema(self, tmp_path):
        path = write_scenario(tmp_path)
        doc = json.loads((tmp_path / "scen.json").read_text())
        doc["schema"] = 2
        (tmp_path / "scen.json").write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            parse_scenario(path)

    def test_both_b_and_gamma(self, tmp_path):
        path = write_scenario(tmp_path, gamma=[[[0.1, 0.0]]])
        with pytest.raises(ValidationError):
            parse_scenario(path)

    def test_expansive_gamma_rejected(self, tmp_path):
        path = write_scenario(tmp_path, B=None, gamma=[[[1.2, 0.0]]])
        with pytest.raises(ValidationError, match="not contractive"):
            parse_scenario(path)

    def test_gamma_accepted(self, tmp_path):
        path = write_scenario(tmp_path, B=None, gamma=[[[0.5, 0.0]]])
        scen = parse_scenario(path)
        assert scen.first.gamma.matrix[0, 0] == pytest.approx(0.5)

    @pytest.mark.parametrize("key", ["gamma", "B"])
    def test_coupling_just_above_norm_one_rejected(self, tmp_path, key):
        path = _boundary_scenario(tmp_path, key)
        with pytest.raises(ValidationError, match=rf"^{key}: not contractive \(norm 1\.0000000000"):
            parse_scenario(path)

    def test_corrupted_second_level(self, tmp_path):
        # B' too large to factor through the defect operators contractively
        path = write_scenario(tmp_path, Aprime=[[[[0.0, 0.0]]]],
                              Bprime=[[[[0.9, 0.0], [0.9, 0.0]]]])
        with pytest.raises(ValidationError):
            parse_scenario(path)


class TestCommands:
    def test_verify_example1_exit_zero(self, capsys):
        rc = main(["verify", _packaged_scenario("example1.json")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "overall: PASS" in out
        assert "factorization" in out

    def test_verify_writes_report(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        rc = main(["verify", _packaged_scenario("example2.json"), "--out", str(out_file)])
        assert rc == 0
        doc = json.loads(out_file.read_text())
        assert doc["schema"] == 2 and doc["pass"] is True
        names = [r["name"] for r in doc["identities"]]
        assert names == ["factorization", "minimal-product"]
        assert "D_Eprime" in doc["identities"][0]["bases"]
        assert "sigma_Eprime" in doc["identities"][0]["factors"]
        assert not list(tmp_path.glob("*.tmp-*"))

    def test_verify_report_carries_the_reports_matrices(self, tmp_path, capsys):
        # every factor and basis decodes bit for bit to the in-process value,
        # and two runs write the same bytes
        path = _packaged_scenario("example2.json")
        texts = []
        for run in ("a", "b"):
            out_file = tmp_path / f"report-{run}.json"
            assert main(["verify", path, "--out", str(out_file)]) == 0
            texts.append(out_file.read_bytes())
        assert texts[0] == texts[1]
        scen = parse_scenario(path)
        reports: list = []
        run_battery(scen.first, scen.iterated, scen.degree, scen.tolerance, "all", reports)
        entries = json.loads(texts[0])["identities"]
        assert [e["name"] for e in entries] == [r.name for r in reports]
        for entry, rep in zip(entries, reports):
            for key in ("factors", "bases"):
                stored = getattr(rep, key)
                assert sorted(entry[key]) == sorted(stored) and stored
                for name, m in stored.items():
                    assert_same_bits(mat_from_packed(entry[key][name], name),
                                     np.atleast_2d(m))

    def test_charfn_dump_carries_the_coefficients(self, tmp_path, capsys):
        path = _packaged_scenario("example1.json")
        out_file = tmp_path / "charfn.json"
        assert main(["charfn", path, "--out", str(out_file)]) == 0
        doc = json.loads(out_file.read_text())
        assert doc["schema"] == 2
        scen = parse_scenario(path)
        fns = cli.char_fns(scen, doc["degree"])
        assert [f["name"] for f in doc["functions"]] == list(fns)
        for dump, fn in zip(doc["functions"], fns.values()):
            assert_same_bits(mat_from_packed(dump["dom_basis"], "dom"), fn.op.dom.basis)
            assert_same_bits(mat_from_packed(dump["cod_basis"], "cod"), fn.op.cod.basis)
            coeffs = {rowcon.word_to_str(w, scen.d): m for w, m in fn.op.coeffs.items()}
            assert [c["word"] for c in dump["coefficients"]] == list(coeffs)
            for c in dump["coefficients"]:
                assert_same_bits(mat_from_packed(c["matrix"], c["word"]), coeffs[c["word"]])

    def test_synthesis_report_serializes_as_an_identity(self):
        data = gen.random_synthesis_data(np.random.default_rng([11, 0]), 2, (1, 1, 1))
        _, rep = charfact.synthesize_lifting(*data, 4)
        entry = json.loads(json.dumps(cli.identity_report_dict(rep)))
        assert entry["name"] == "synthesis" and entry["pass"] is True
        assert float(entry["checks"]["pure_margin"]) > charfact.PURE_MARGIN
        assert sorted(entry["factors"]) == ["delta", "gamma_hat", "phi", "u1", "u2"]
        np.testing.assert_array_equal(mat_from_packed(entry["factors"]["phi"], "phi"),
                                      rep.factors["phi"])
        assert entry["column_residuals"] == {} and entry["bases"] == {}

    def test_kernel_leak_above_tol_fails_factorization(self, monkeypatch, capsys):
        # example2's D_E' has a one-dimensional kernel.  A 1e-9 component of the
        # engine's vacuum input D along it is judged with the factorization
        # residual: above --tol 1e-10 it must fail the factorization line (exit 1).
        scen = _packaged_scenario("example2.json")
        q = parse_scenario(scen).iterated.as_c_lifting.dE.space.basis
        rank, vh = numlin.svd_rank(q.conj().T)
        ker = vh[rank:].conj().T
        assert ker.shape[1] == 1
        args = ["verify", scen, "--check", "factorization", "--tol", "1e-10"]
        assert main(args) == 0
        capsys.readouterr()
        engine = charfact.transfer_coeffs

        def leaking(D, C, B, X, n, **kw):
            if D.shape[1] == ker.shape[0]:
                D = D + 1e-9 * np.outer(np.ones(D.shape[0]), ker[:, 0].conj())
            return engine(D, C, B, X, n, **kw)

        monkeypatch.setattr(charfact, "transfer_coeffs", leaking)
        assert main(args) == 1
        line = next(ln for ln in capsys.readouterr().out.splitlines()
                    if ln.split()[:1] == ["factorization"])
        assert "FAIL" in line

    def test_verify_invalid_input_exit_two(self, tmp_path, capsys):
        path = write_scenario(tmp_path, Aprime=[[[[0.0, 0.0]]]],
                              Bprime=[[[[0.9, 0.0], [0.9, 0.0]]]])
        rc = main(["verify", path])
        assert rc == 2

    def test_verify_check_needs_second_level(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        rc = main(["verify", path, "--check", "factorization"])
        assert rc == 2

    def test_verify_single_level_checks(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        rc = main(["verify", path, "--check", "sigmas"])
        assert rc == 0
        assert "sigma-unitary[E|C,A]" in capsys.readouterr().out

    def test_charfn_dump(self, capsys):
        rc = main(["charfn", _packaged_scenario("example1.json")])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        names = [f["name"] for f in doc["functions"]]
        assert names == ["M_A", "M_CE", "M_Aprime", "M_EEprime", "M_CEprime"]
        mcep = doc["functions"][names.index("M_CEprime")]
        words = [c["word"] for c in mcep["coefficients"]]
        assert words == sorted(words, key=lambda s: (len(s), s))
        assert "" in words and "1" in words
        # the engine residuals, which `charfn` records and does not judge
        for f in doc["functions"]:
            for key in ("crosscheck_residual", "kernel_residual"):
                assert re.fullmatch(r"\d\.\d{3}e[+-]\d\d", f[key]) and float(f[key]) <= 1e-10

    def test_engine_residuals_have_one_line_per_group(self, capsys):
        # one line per characteristic function in sigmas, one per other group
        assert main(["verify", _packaged_scenario("example2.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        names = [ln.split()[0] for ln in lines if "crosscheck" in ln]
        assert names == [f"charfn-crosscheck[{m}]" for m in ("M_A", "M_CE", "M_Aprime",
                                                              "M_EEprime", "M_CEprime")] + [
            "resolvent-crosscheck", "factorization-crosscheck", "minimal-crosscheck"]
        assert all(len(n.split("[")[0]) <= 24 for n in names)

    def test_scenario_tolerance_does_not_gate_parsing(self, tmp_path, capsys):
        # B must factor within LIFT_TOL whatever the tolerance, so a tolerance
        # below rounding fails lines (exit 1) and does not refuse the input
        first = random_iterated_lifting(np.random.default_rng([1, 0]), 3, (1, 1, 1)).first
        path = write_scenario(tmp_path, d=3, tolerance=1e-16,
                              C=[mat_to_json(m) for m in first.C.ops],
                              A=[mat_to_json(m) for m in first.A.ops],
                              B=[mat_to_json(m) for m in first.B])
        assert main(["charfn", path]) == 0
        capsys.readouterr()
        assert main(["verify", path]) == 1
        assert "error:" not in capsys.readouterr().err

    def test_charfn_isometric_base_empty(self, tmp_path, capsys):
        path = write_scenario(tmp_path, A=[[[[1.0, 0.0]]]], B=[[[[0.0, 0.0]]]])
        rc = main(["charfn", path])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        ma = doc["functions"][0]
        assert ma["name"] == "M_A" and ma["coefficients"] == []

    def test_worked_examples(self, capsys):
        assert main(["worked-examples"]) == 0
        out = capsys.readouterr().out
        assert out.count("overall: PASS") == 2
        assert "symbol[M_CEprime]" in out

    def test_random_suite_small(self, tmp_path, capsys):
        out_file = tmp_path / "suite.json"
        rc = main(["random-suite", "--seeds", "2", "--degree", "3",
                   "--out", str(out_file)])
        assert rc == 0
        doc = json.loads(out_file.read_text())
        assert doc["pass"] is True and len(doc["per_seed"]) == 2

    def test_random_suite_tolerance_below_rounding_fails_lines(self, capsys):
        # a tolerance only judges: below the rounding of the constructions the
        # identity lines fail (exit 1) and every seed is named
        assert main(["random-suite", "--seeds", "5", "--tol", "1e-16"]) == 1
        out, err = capsys.readouterr()
        assert "failing seeds: [0, 1, 2, 3, 4]" in out
        assert "error:" not in err

    def test_random_suite_exits_two_when_generator_gives_up(self, monkeypatch, capsys):
        monkeypatch.setattr(gen, "is_minimal_lifting", lambda lift: False)
        assert main(["random-suite", "--seeds", "1"]) == 2
        assert "could not draw a minimal iterated lifting" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_verify_degree_zero_passes_every_line(self, capsys, name):
        assert main(["verify", _packaged_scenario(f"{name}.json"), "--degree", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "degree: 0" and lines[-1] == "overall: PASS"
        assert all(ln.endswith("  pass") for ln in lines[2:-1])

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_charfn_degree_zero_keeps_only_the_vacuum(self, capsys, name):
        assert main(["charfn", _packaged_scenario(f"{name}.json"), "--degree", "0"]) == 0
        words = [[c["word"] for c in f["coefficients"]]
                 for f in json.loads(capsys.readouterr().out)["functions"]]
        # a function between zero-dimensional defect spaces stores no coefficient
        assert all(w in ([""], []) for w in words) and [""] in words

    def test_random_suite_degree_zero(self, capsys):
        assert main(["random-suite", "--seeds", "5", "--degree", "0"]) == 0
        assert "overall: PASS (5 seeds)" in capsys.readouterr().out

    def test_rank_boundary_defect_unitary_fails_lines(self, tmp_path, capsys):
        # row(A) at norm 1 - 1e-10 is a valid strict row contraction; I - AA*
        # keeps an eigenvalue near 2e-10 that the same rank cut drops from
        # I - E*E, so the defect unitaries of E are not square and miss their
        # defining relations by about 1e-5: failing lines, not an error
        path = _rank_boundary_scenario(tmp_path, 0, 1e-10)
        assert main(["verify", path]) == 1
        out, err = capsys.readouterr()
        failed = [ln.split()[0] for ln in out.splitlines() if ln.endswith("  FAIL")]
        assert "sigma-defining[E|C,A]" in failed
        assert "error:" not in err

    @pytest.mark.parametrize("eps", [1e-8, 1e-9])
    @pytest.mark.parametrize("draw", range(5))
    def test_rank_boundary_defect_unitary_passes_where_ranks_agree(self, tmp_path, capsys,
                                                                  draw, eps):
        # at 1e-8 and 1e-9 every rank cut agrees, but D_E keeps an eigenvalue
        # near eps: each defect unitary, the polar factor of its target T =
        # sigma D_E, still meets its defining relation and unitarity to rounding
        path = _rank_boundary_scenario(tmp_path, draw, eps)
        assert main(["verify", path]) == 0
        out, err = capsys.readouterr()
        assert "  FAIL" not in out
        assert "error:" not in err

    def test_rank_boundary_two_level_kernel_residual_fails_lines(self, tmp_path, capsys):
        # draw 1 of the two-level population with row(A) at norm 1 - 1e-9: the
        # symbol of E' over E keeps a component of about 3e-6 on ker D_E', which
        # the minimal-product line judges: failing lines, not an error
        rng = np.random.default_rng([5, 1])
        c = random_row_contraction(rng, 2, 2)
        a = random_row_contraction(rng, 2, 2)
        a = rowcon.RowContraction(a.ops * ((1 - 1e-9) / numlin.operator_norm(a.row)))
        g = gen.random_contraction_between(rng, rowcon.star_defect(a).space,
                                           rowcon.defect(c).space)
        first = lifting.make_lifting(c, a, g)
        a2 = random_row_contraction(rng, 2, 2)
        g2 = gen.random_contraction_between(rng, rowcon.star_defect(a2).space,
                                            rowcon.defect(first.E).space)
        path = write_scenario(tmp_path, d=2, degree=4, B=None, gamma=mat_to_json(g.matrix),
                              gammaprime=mat_to_json(g2.matrix),
                              C=[mat_to_json(m) for m in c.ops],
                              A=[mat_to_json(m) for m in a.ops],
                              Aprime=[mat_to_json(m) for m in a2.ops])
        assert main(["verify", path]) == 1
        out, err = capsys.readouterr()
        failed = [ln.split()[0] for ln in out.splitlines() if ln.endswith("  FAIL")]
        assert "minimal-product" in failed
        assert "error:" not in err

    def test_non_minimal_liftings_are_noted_not_judged(self, tmp_path, capsys):
        # B = B' = 0: E = C (+) A and E' = E (+) A' are not minimal, which the
        # minimal-product identity assumes; the report records it, verify
        # notes it on stderr, and no verdict changes
        path = write_scenario(tmp_path, C=[[[[0.5, 0.0]]]], A=[[[[0.3, 0.0]]]], B=[[[[0.0, 0.0]]]],
                              Aprime=[[[[0.2, 0.0]]]], Bprime=[[[[0.0, 0.0], [0.0, 0.0]]]])
        out_file = tmp_path / "report.json"
        assert main(["verify", path, "--out", str(out_file)]) == 0
        err = capsys.readouterr().err
        rep = next(r for r in json.loads(out_file.read_text())["identities"]
                   if r["name"] == "minimal-product")
        assert rep["checks"]["first_minimal"] == rep["checks"]["second_minimal"] == "1.000e+00"
        for level in ("first", "second"):
            assert (f"note: {level} lifting is not minimal; the minimal-product identity "
                    "assumes it") in err.splitlines()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "liftchar", "verify", _packaged_scenario("example1.json"),
         "--check", "resolvent"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "overall: PASS" in proc.stdout
    assert "wall time" in proc.stderr


def test_readme_library_example_runs():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        code = re.search(r"```python\n(.*?)```", fh.read(), re.S).group(1)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.splitlines()[-1]) <= 1e-12


def test_thread_cap_keeps_reports_identical(tmp_path):
    outs = []
    for threads in ("1", "3"):
        out_file = tmp_path / f"suite-{threads}.json"
        env = dict(os.environ, LIFTCHAR_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "liftchar", "random-suite", "--seeds", "3",
             "--degree", "3", "--out", str(out_file)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append(out_file.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv, scenario, env", [
    pytest.param(["verify", "{scen}"], {"degree": "3"}, {}, id="degree-string"),
    pytest.param(["verify", "{scen}"], {"degree": 2.5}, {}, id="degree-float"),
    pytest.param(["verify", "{scen}"], {"tolerance": "abc"}, {}, id="tolerance-string"),
    pytest.param(["verify", "{scen}"], {"tolerance": float("nan")}, {}, id="tolerance-nan"),
    pytest.param(["verify", "{scen}"], {"tolerance": 10**400}, {}, id="tolerance-huge-int"),
    pytest.param(["verify", "{scen}"], {"C": [[[[float("nan"), 0.0]]]]}, {}, id="matrix-nan"),
    pytest.param(["verify", "{scen}"], {"C": [[[[10**400, 0.0]]]]}, {}, id="matrix-huge-int"),
    pytest.param(["verify", "{scen}"], {"C": [[[["0.5", 0.0]]]]}, {}, id="matrix-string-entry"),
    pytest.param(["verify", "{scen}"], {"B": [[[[True, 0.0]]]]}, {}, id="matrix-bool-entry"),
    # finite entries whose Gram matrix overflows
    pytest.param(["verify", "{scen}"], {"C": [[[[0.5, 1e300]]]]}, {}, id="C-entry-1e300"),
    # row tuples refused before they are stacked
    pytest.param(["verify", "{scen}"],
                 {"d": 2, "C": [[[[0.5, 0.0]]],
                                [[[0.1, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.1, 0.0]]]]},
                 {}, id="C-ragged"),
    pytest.param(["verify", "{scen}"], {"C": [[[[0.5, 0.0], [0.0, 0.0]]]]}, {}, id="C-not-square"),
    pytest.param(["verify", "{scen}"], {"B": None, "gamma": [[[1e300, 0.0]]]}, {},
                 id="gamma-entry-1e300"),
    pytest.param(["verify", "{scen}", "--degree", "-1"], {}, {}, id="verify-degree-negative"),
    pytest.param(["verify", "{scen}", "--out", "{tmp}/missing/dir/x.json"], {}, {},
                 id="out-missing-dir"),
    pytest.param(["verify", "{scen}", "--out", "{tmp}"], {}, {}, id="out-is-directory"),
    pytest.param(["random-suite", "--seeds", "1", "--degree", "1", "--out",
                  "{tmp}/missing/x.json"], None, {}, id="suite-out-missing-dir"),
    pytest.param(["charfn", "{scen}", "--out", "{tmp}/missing/x.json"], {}, {},
                 id="charfn-out-missing-dir"),
    pytest.param(["random-suite", "--seeds", "0"], None, {}, id="seeds-zero"),
    pytest.param(["random-suite", "--d-max", "0"], None, {}, id="d-max-zero"),
    pytest.param(["random-suite", "--dim-max", "0"], None, {}, id="dim-max-zero"),
    pytest.param(["random-suite", "--degree", "-1"], None, {}, id="suite-degree-negative"),
    pytest.param(["random-suite", "--seed-base", "-1"], None, {}, id="seed-base-negative"),
    pytest.param(["random-suite", "--seeds", "1", "--degree", "1"], None,
                 {"LIFTCHAR_THREADS": "x"}, id="threads-not-integer"),
    pytest.param(["random-suite", "--seeds", "1"], None, {"LIFTCHAR_THREADS": "0"},
                 id="threads-zero"),
    pytest.param(["random-suite", "--seeds", "1"], None, {"LIFTCHAR_THREADS": "-3"},
                 id="threads-negative"),
    pytest.param(["random-suite", "--seeds", "1"], None, {"LIFTCHAR_THREADS": ""},
                 id="threads-empty"),
    pytest.param(["verify", "{scen}"], {"id": [1, 2]}, {}, id="id-list"),
    pytest.param(["verify", "{scen}"], {"id": {}}, {}, id="id-object"),
    pytest.param(["verify", "{scen}"], {"id": None, "keep": ["id"]}, {}, id="id-null"),
    pytest.param(["charfn", "{scen}"], {"id": 3.5}, {}, id="id-float"),
])
def test_invalid_input_exits_two(tmp_path, argv, scenario, env):
    path = write_scenario(tmp_path, **scenario) if scenario is not None else ""
    argv = [a.replace("{scen}", path).replace("{tmp}", str(tmp_path)) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "liftchar", *argv],
                          capture_output=True, text=True, env=dict(os.environ, **env))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert any("error:" in line for line in proc.stderr.splitlines())
    assert "Traceback" not in proc.stderr
    if "id" in (scenario or {}):
        assert f"error: {path}: id must be a string" in proc.stderr.splitlines()
    if "--out" in argv:  # refused before any work: no report text, no leftover file
        assert proc.stdout == ""
        assert "error: cannot write" in proc.stderr
        assert not list(tmp_path.rglob("*.tmp-*"))


# values no scenario key accepts, or accepts only in a narrow range
BAD_VALUES = [None, True, "", "x", [], {}, [[[0]]], [[[[0.0, 0.0]]]], 1e308, -1e308, 9, 0, -1,
              2.5, 10**400]


def _number_paths(x, path=()):
    """Paths to the numbers inside nested lists."""
    if isinstance(x, list):
        for i, v in enumerate(x):
            yield from _number_paths(v, path + (i,))
    elif isinstance(x, (int, float)) and not isinstance(x, bool):
        yield path


@st.composite
def mutated_scenarios(draw):
    """A packaged scenario with one key dropped, one key set to a bad value, or
    one matrix entry set to 1e300."""
    with open(_packaged_scenario(draw(st.sampled_from(["example1.json", "example2.json"])))) as fh:
        doc = json.load(fh)
    kind = draw(st.sampled_from(["drop", "set", "scale"]))
    if kind == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif kind == "set":
        key = draw(st.sampled_from(sorted(doc) + ["gamma", "gammaprime"]))
        doc[key] = draw(st.sampled_from(BAD_VALUES))
    else:
        key = draw(st.sampled_from(sorted(k for k, v in doc.items() if isinstance(v, list))))
        *where, last = draw(st.sampled_from(list(_number_paths(doc[key]))))
        entry = doc[key]
        for i in where:
            entry = entry[i]
        entry[last] = 1e300
    return doc


@settings(max_examples=200, deadline=None)
@given(mutated_scenarios())
def test_mutated_scenarios_keep_the_exit_code_contract(doc):
    # 0 pass, 1 verification failed, 2 invalid input; no exception escapes main
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scen.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for argv in (["verify", path, "--degree", "2"], ["charfn", path, "--degree", "2"]):
            assert main(argv) in (0, 1, 2), argv


def test_worked_examples_do_not_import_numpy_random():
    code = ("import runpy, sys\n"
            "sys.argv = ['liftchar', 'worked-examples']\n"
            "try:\n"
            "    runpy.run_module('liftchar', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "print('numpy.random' in sys.modules, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip().splitlines()[-1] == "False"


class TestCharfnChecksCanFail:
    def test_inflated_symbol_fails_norm(self):
        scen = parse_scenario(_packaged_scenario("example2.json"))
        fn = lifting_char_fn(scen.second, scen.degree)
        checks = {c.name: c for c in _charfn_checks("M", fn)}
        assert checks["charfn-norm[M]"].passed
        # the symbol times 1 + 1e-8, planted in its colligation form (every
        # coefficient is D or C X_w B_k)
        form = fn.form
        inflated = dataclasses.replace(form, D=(1 + 1e-8) * form.D, B=(1 + 1e-8) * form.B)
        checks = {c.name: c for c in _charfn_checks("M", dataclasses.replace(fn, form=inflated))}
        assert checks["charfn-norm[M]"].residual > NORM_SLACK
        assert not checks["charfn-norm[M]"].passed

    def test_prepending_realization_fails_intertwine(self, monkeypatch):
        fn = row_char_fn(random_row_contraction(np.random.default_rng(11), 2, 2), 3)
        op = fn.op
        basis, kd, kc = op.basis, op.dom.dim, op.cod.dim
        n = len(basis)
        index = {w: i for i, w in enumerate(
            w for k in range(basis.N + 1) for w in itertools.product((1, 2), repeat=k))}
        wrong = np.zeros((n * kc, n * kd), dtype=complex)
        for a, mat in op.coeffs.items():  # e_b (x) x -> e_{reverse(a) + b} (x) theta_(a) x
            for b, j in index.items():
                if len(a) + len(b) <= basis.N:
                    i = index[a[::-1] + b]
                    wrong[i * kc:(i + 1) * kc, j * kd:(j + 1) * kd] += mat

        class Prepending:
            shape, k_dom, k_cod = wrong.shape, kd, kc
            matvec = staticmethod(lambda x: wrong @ x)
            rmatvec = staticmethod(lambda y: wrong.conj().T @ y)

        assert {c.name: c for c in _charfn_checks("M", fn)}["charfn-intertwine[M]"].passed
        monkeypatch.setattr(ncfock, "realize", lambda m: Prepending())
        check = {c.name: c for c in _charfn_checks("M", fn)}["charfn-intertwine[M]"]
        assert check.residual > INTERTWINE_TOL
        assert not check.passed


def test_wrong_sigma_target_fails_a_sigma_line(monkeypatch):
    # a defect unitary solved against a target with its last row off by 1%
    # cannot meet both its defining relation and unitarity: each of the six
    # unitaries of the sigmas group fails one of its two lines
    certified = lifting._certified_sigma

    def wrong_target(target, dd, cod):
        target = np.array(target)
        target[-1] *= 1.01
        return certified(target, dd, cod)

    monkeypatch.setattr(lifting, "_certified_sigma", wrong_target)
    it = random_iterated_lifting(np.random.default_rng(12), 2, (1, 2, 1))
    failed = {}
    for c in run_battery(it.first, it, 3, 1e-8, "sigmas"):
        m = re.fullmatch(r"sigma-(star-)?(?:defining|unitary)(\[.*\])", c.name)
        if m:
            failed.setdefault(m.groups(), []).append(not c.passed)
    assert len(failed) == 6
    assert all(any(v) for v in failed.values())


def test_sigma_target_off_its_codomain_fails_the_defining_line(monkeypatch):
    # example2's four unitaries over E' map onto 2-dimensional codomains in
    # C^3.  Moving each target 1e-6 out of its codomain fails exactly their
    # defining lines: the defining residual is at least ||(I - P_cod) target||,
    # so no containment term of its own is needed
    certified = lifting._certified_sigma
    leaks = []

    def leaking(target, dd, cod):
        r = np.arange(1.0, target.size + 1).reshape(target.shape) / target.size
        target = target + 1e-6 * (r - cod.basis @ (cod.basis.conj().T @ r))
        sigma = certified(target, dd, cod)
        leak = numlin.operator_norm(target - cod.basis @ (cod.basis.conj().T @ target))
        leaks.append((leak, sigma.defining_residual))
        return sigma

    monkeypatch.setattr(lifting, "_certified_sigma", leaking)
    scen = parse_scenario(_packaged_scenario("example2.json"))
    checks = run_battery(scen.first, scen.iterated, scen.degree, 1e-8, "sigmas")
    assert [c.name for c in checks if not c.passed] == [
        "sigma-defining[Eprime|E,Aprime]", "sigma-star-defining[Eprime|E,Aprime]",
        "sigma-defining[Eprime|C,Ahat]", "sigma-star-defining[Eprime|C,Ahat]"]
    assert len(leaks) == 6 and sum(leak > 1e-7 for leak, _ in leaks) == 4
    assert all(resid >= leak - 1e-15 for leak, resid in leaks)


def test_sigmas_memory_stays_small():
    # d=3, dims (2,2,2), N=6: a dense realization would need about 6.2 GB
    it = random_iterated_lifting(np.random.default_rng([7, 0]), 3, (2, 2, 2))
    tracemalloc.start()
    try:
        checks = run_battery(it.first, it, 6, 1e-8, "sigmas")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c.passed for c in checks)
    assert peak < 200e6, f"traced peak {peak / 1e6:.0f} MB"


def test_identity_groups_memory_stays_small():
    # factorization, then minimal, on one d=3, dims (2,2,2) instance at N=6.  The
    # traced peaks were 5.88 MB for factorization, with its left side written
    # from the colligation form of the symbol of E' over C, and 2.22 MB for
    # minimal, which reads its three symbols through their writers and
    # materializes none (numpy 2.4.6); the bounds allow 5% more.  The symbol
    # of E' over C holds 3.8 MB written whole, and each of the minimal
    # group's symbols at least 1.26 MB, so materializing any of them fails,
    # as does a full-size temporary more at the moment of either peak.
    it = random_iterated_lifting(np.random.default_rng([7, 0]), 3, (2, 2, 2))
    for group, bound in (("factorization", 1.05 * 5.88e6), ("minimal", 1.05 * 2.22e6)):
        tracemalloc.start()
        try:
            checks = run_battery(it.first, it, 6, 1e-8, group)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(c.passed for c in checks)
        assert peak < bound, f"{group}: traced peak {peak / 1e6:.2f} MB"


def test_battery_memory_held_stays_small():
    # what the whole battery leaves held on the same instance at N=6: the
    # memoized symbols and defect data, and with a reports list (as `verify`
    # passes) the two identity reports too.  It was 8.70 MB with each
    # characteristic function stored once (numpy 2.4.6), and 16.90 MB with an
    # ambient copy of each; the bound allows 5% more.  A report that kept its
    # truncated-Fock right side held 12.28 MB.  Each input is a fresh instance,
    # so nothing memoized by the first run is missing from the second's count.
    for reports in (None, []):
        it = random_iterated_lifting(np.random.default_rng([7, 0]), 3, (2, 2, 2))
        tracemalloc.start()
        try:
            checks = run_battery(it.first, it, 6, 1e-8, "all", reports)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert all(c.passed for c in checks)
        assert reports is None or len(reports) == 2
        assert held < 1.05 * 8.70e6, f"reports={reports is not None}: held {held / 1e6:.2f} MB"


def _count_calls(monkeypatch, name, *modules):
    """Wrap `name` wherever one of the modules binds it; the list gets one entry per call."""
    calls = []
    for mod in modules:
        fn = getattr(mod, name, None)
        if fn is not None:
            def counting(*args, _fn=fn, **kw):
                calls.append(name)
                return _fn(*args, **kw)
            monkeypatch.setattr(mod, name, counting)
    return calls


def test_no_duplicate_work(monkeypatch, capsys):
    # parsing example2 derives four couplings (gamma, gamma', delta, gamma-hat) once
    # each, and worked-examples splits off each example's minimal part once
    gammas = _count_calls(monkeypatch, "extract_gamma", lifting, charfact, cli)
    parse_scenario(_packaged_scenario("example2.json"))
    assert len(gammas) == 4
    parts = _count_calls(monkeypatch, "minimal_part", charfact, cli)
    assert main(["worked-examples"]) == 0
    assert len(parts) == 2
    # a coupling's defects are shared by its defect unitaries, Julia-Halmos matrix and
    # the factorization (drawing the instances included)
    roots = _count_calls(monkeypatch, "psd_root_range", numlin, charfact, lifting)
    for s in range(5):
        it = random_iterated_lifting(np.random.default_rng(s), 2, (2, 2, 2))
        run_battery(it.first, it, 5, 1e-8, "all")
    assert len(roots) <= 135


def test_one_realization_per_symbol(monkeypatch):
    # the sigmas group realizes each of a two-level scenario's five symbols once,
    # for both its norm and its intertwining line
    realized = _count_calls(monkeypatch, "realize", ncfock)
    it = random_iterated_lifting(np.random.default_rng(3), 2, (1, 2, 1))
    checks = run_battery(it.first, it, 4, 1e-8, "sigmas")
    assert all(c.passed for c in checks)
    assert len(realized) == 5


def test_each_defect_unitary_built_once(monkeypatch, capsys):
    # nine per example: sigma and sigma' of E over C, E' over E, E' over C and
    # A-hat, plus the minimal part's splitting; none is rebuilt for the
    # scenario's own tolerance
    sigmas = _count_calls(monkeypatch, "_certified_sigma", lifting, charfact)
    assert main(["worked-examples"]) == 0
    assert len(sigmas) == 18


def test_nothing_decomposed_twice(monkeypatch):
    # every PSD eigendecomposition and pseudo-inverse of a battery has its own
    # input: the derived liftings share their row contractions, and a defect's
    # pseudo-inverse is kept with it (d = 2, where no two defects of a generic
    # instance coincide)
    seen = {"psd_root_range": [], "pinv": []}
    for name, inputs in seen.items():
        fn = getattr(numlin, name)

        def recording(m, *args, _fn=fn, _inputs=inputs, **kw):
            m = np.asarray(m)
            if m.size:
                _inputs.append(m.shape + (m.tobytes(),))
            return _fn(m, *args, **kw)

        for mod in (numlin, rowcon, lifting, charfact, cli):
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, recording)
    it = random_iterated_lifting(np.random.default_rng(12), 2, (2, 2, 2))
    assert all(c.passed for c in run_battery(it.first, it, 4, 1e-8, "all"))
    for name, inputs in seen.items():
        assert inputs, name
        assert len(set(inputs)) == len(inputs), f"{name} repeats an input"


@pytest.mark.parametrize("key", ["gamma", "B"])
@pytest.mark.parametrize("argv", [["charfn"], ["verify", "--check", "resolvent"], ["verify"]],
                         ids=["charfn", "verify-resolvent", "verify"])
def test_expansive_coupling_exits_two_at_parse(tmp_path, capsys, key, argv):
    path = _boundary_scenario(tmp_path, key)
    assert main(argv[:1] + [path] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {key}: not contractive (norm 1.0000000000")
    assert "Traceback" not in captured.err


def test_no_unitarity_residual_input_repeats(monkeypatch):
    # the Julia-Halmos matrix of delta is built once, for its report line and
    # for the factorization
    fn, inputs = numlin.unitarity_residual, []

    def recording(m, *args, **kw):
        m = np.asarray(m)
        inputs.append(m.shape + (m.tobytes(),))
        return fn(m, *args, **kw)

    for mod in (numlin, rowcon, lifting, charfact, cli):
        if getattr(mod, "unitarity_residual", None) is fn:
            monkeypatch.setattr(mod, "unitarity_residual", recording)
    it = random_iterated_lifting(np.random.default_rng(12), 2, (2, 2, 2))
    assert all(c.passed for c in run_battery(it.first, it, 4, 1e-8, "all"))
    assert inputs
    assert len(set(inputs)) == len(inputs)


def test_out_of_memory_exits_two():
    # the address-space cap applies to the child process only
    cap = 600_000 * 1024

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run(
        [sys.executable, "-m", "liftchar", "verify", _packaged_scenario("example1.json"),
         "--degree", "100000000"],
        capture_output=True, text=True, preexec_fn=limit, timeout=120)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert any(line.startswith("error:") for line in proc.stderr.splitlines())
    assert "Traceback" not in proc.stderr
