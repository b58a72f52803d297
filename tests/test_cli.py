import json
import os
import subprocess
import sys

import numpy as np
import pytest

from liftchar.cli import (
    _packaged_scenario,
    main,
    mat_from_json,
    mat_to_json,
    parse_scenario,
)
from liftchar.errors import ParseError, ValidationError


def write_scenario(tmp_path, name="scen.json", **overrides):
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
    doc = {k: v for k, v in doc.items() if v is not None}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_mat_json_round_trip():
    m = np.array([[1 + 2j, 0.5], [0, -1j]])
    np.testing.assert_allclose(mat_from_json(mat_to_json(m), "m"), m)


class TestParseScenario:
    def test_packaged_example1(self):
        scen = parse_scenario(_packaged_scenario("example1.json"))
        assert scen.d == 1 and scen.degree == 2
        assert scen.iterated is not None
        np.testing.assert_allclose(np.hstack(scen.iterated.second.E.ops),
                                   0.5 * np.ones((3, 1)) @ np.array([[1, 0, 0]]),
                                   atol=1e-12)
        assert scen.derivations["gamma_residual"] < 1e-12

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
        doc = json.loads(open(path).read())
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
        assert doc["schema"] == 1 and doc["pass"] is True
        names = [r["name"] for r in doc["identities"]]
        assert names == ["factorization", "minimal-product"]
        assert "D_Eprime" in doc["identities"][0]["bases"]
        assert "sigma_Eprime" in doc["identities"][0]["factors"]
        assert not list(tmp_path.glob("*.tmp-*"))

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


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "liftchar", "verify", _packaged_scenario("example1.json"),
         "--check", "resolvent"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "overall: PASS" in proc.stdout
    assert "wall time" in proc.stderr


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
    pytest.param(["verify", "{scen}", "--degree", "-1"], {}, {}, id="verify-degree-negative"),
    pytest.param(["verify", "{scen}", "--out", "{tmp}/missing/dir/x.json"], {}, {},
                 id="out-missing-dir"),
    pytest.param(["random-suite", "--seeds", "0"], None, {}, id="seeds-zero"),
    pytest.param(["random-suite", "--d-max", "0"], None, {}, id="d-max-zero"),
    pytest.param(["random-suite", "--dim-max", "0"], None, {}, id="dim-max-zero"),
    pytest.param(["random-suite", "--degree", "-1"], None, {}, id="suite-degree-negative"),
    pytest.param(["random-suite", "--seed-base", "-1"], None, {}, id="seed-base-negative"),
    pytest.param(["random-suite", "--seeds", "1", "--degree", "1"], None,
                 {"LIFTCHAR_THREADS": "x"}, id="threads-not-integer"),
])
def test_invalid_input_exits_two(tmp_path, argv, scenario, env):
    path = write_scenario(tmp_path, **scenario) if scenario is not None else ""
    argv = [a.replace("{scen}", path).replace("{tmp}", str(tmp_path)) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "liftchar", *argv],
                          capture_output=True, text=True, env=dict(os.environ, **env))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert any("error:" in line for line in proc.stderr.splitlines())
    assert "Traceback" not in proc.stderr
