"""Byte-exact golden outputs for the CLI.

The generator values inside the goldens are independently pinned by the
unit and acceptance tests; these files additionally freeze formatting,
ordering, and note text so that any output drift shows up as a diff.
"""

import json
from pathlib import Path

from hodgeideals.cli import main

GOLDEN = Path(__file__).parent / "golden"

CUSP_TASK = {"vars": ["x", "y"],
             "divisor": {"components": [{"f": "x^2+y^3", "alpha": "9/10"}]},
             "task": "compute", "k": 2, "method": "auto"}
SNC_TASK = {"vars": ["x", "y"],
            "divisor": {"components": [{"f": "x", "alpha": "3/2"},
                                       {"f": "y", "alpha": "1/2"}]},
            "task": "compute", "k": 1, "method": "auto"}
SNC_LEX_TASK = {"vars": ["x", "y", "z"],
                "divisor": {"components": [{"f": "x", "alpha": "5/2"},
                                           {"f": "y", "alpha": "1/3"},
                                           {"f": "z", "alpha": "2"}]},
                "task": "compute", "k": 3, "method": "auto"}
CYLINDER_TASK = {"vars": ["x", "y", "z"],
                 "divisor": {"components": [{"f": "x^2+y^3", "alpha": "7/4"}]},
                 "task": "compute", "k": 2, "method": "auto"}
CUBIC_TASK = {"vars": ["x", "y", "z"],
              "divisor": {"components": [{"f": "x^2+y^3+z^5", "alpha": "1"}]},
              "task": "compute", "k": 2, "method": "auto"}
CERT_TASK = {"vars": ["x", "y"],
             "divisor": {"components": [{"f": "x^2+y^3", "alpha": "4/5"}]},
             "task": "certify", "k": 0,
             "resolution": {"exceptional": [{"a": [2], "b": 1}, {"a": [3], "b": 2},
                                            {"a": [6], "b": 4}],
                            "strict_transform_smooth": True}}


def run(tmp_path, capsys, task, *argv):
    path = tmp_path / "task.json"
    path.write_text(json.dumps(task))
    code = main([*argv, str(path)])
    assert code == 0
    return capsys.readouterr().out


def test_cusp_compute_json_golden(tmp_path, capsys):
    out = run(tmp_path, capsys, CUSP_TASK, "--format", "json", "compute")
    assert out == (GOLDEN / "cusp_compute.json").read_text()


def test_snc_compute_text_golden(tmp_path, capsys):
    out = run(tmp_path, capsys, SNC_TASK, "--format", "text", "compute")
    assert out == (GOLDEN / "snc_compute.txt").read_text()


def test_snc_compute_lex_json_golden(tmp_path, capsys):
    # A monomial closed form, twisted, printed as JSON outside grevlex.
    out = run(tmp_path, capsys, SNC_LEX_TASK, "--format", "json", "--order", "lex", "compute")
    assert out == (GOLDEN / "snc_compute_lex.json").read_text()


def test_cylinder_compute_lex_golden(tmp_path, capsys):
    # A twist, a cylinder (z unused) and the lex order in one output.
    out = run(tmp_path, capsys, CYLINDER_TASK, "--order", "lex", "compute")
    assert out == (GOLDEN / "cylinder_compute_lex.txt").read_text()


def test_cubic_compute_grlex_json_golden(tmp_path, capsys):
    out = run(tmp_path, capsys, CUBIC_TASK, "--format", "json", "--order", "grlex", "compute")
    assert out == (GOLDEN / "cubic_compute_grlex.json").read_text()


def test_certify_text_golden(tmp_path, capsys):
    out = run(tmp_path, capsys, CERT_TASK, "--format", "text", "certify")
    assert out == (GOLDEN / "certify_trivial.txt").read_text()


def test_verify_all_json_golden(capsys):
    assert main(["--format", "json", "--seed", "7", "verify", "all"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "verify_all.json").read_text()
